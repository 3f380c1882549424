package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostInfo records where and on what a run was measured.
type hostInfo struct {
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Kernel          string `json:"kernel"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
	Seed            int64  `json:"seed"`
	Backend         string `json:"backend"`
	BackendFallback string `json:"backend_fallback,omitempty"`
}

func hostRecord(seed int64, st *stack) hostInfo {
	hs := st.query.HopStats()
	return hostInfo{
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Kernel:          readTrim("/proc/sys/kernel/osrelease"),
		GoVersion:       runtime.Version(),
		Commit:          gitCommit("."),
		Seed:            seed,
		Backend:         hs.Backend,
		BackendFallback: hs.BackendFallback,
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit resolves HEAD by reading .git directly (no git process).
// A checkout without .git, as the benchmark is often run from, reports
// "unknown".
func gitCommit(root string) string {
	git := filepath.Join(root, ".git")
	head := readTrim(filepath.Join(git, "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if c := readTrim(filepath.Join(git, ref)); c != "unknown" {
		return c
	}
	f, err := os.Open(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// rssEvery is the resident-set sampling period of a measured window.
const rssEvery = 20 * time.Millisecond

// rssSampler records the highest resident set seen in each second of a
// window. Their median is the window's peak_rss_mb: a single high-water
// mark depends on where garbage collections happened to fall, and reads
// anywhere from 150 to 320 MB on repeats of one workload.
type rssSampler struct {
	stop, done chan struct{}
	maxima     []float64 // MiB, one per second; read after done closes
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r
}

func (r *rssSampler) loop() {
	defer close(r.done)
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	cur, n := 0.0, 0
	for {
		select {
		case <-r.stop:
			if n > 0 {
				r.maxima = append(r.maxima, cur)
			}
			return
		case <-t.C:
		}
		if v := rssMB(); v > cur {
			cur = v
		}
		if n++; n == int(time.Second/rssEvery) {
			r.maxima = append(r.maxima, cur)
			cur, n = 0, 0
		}
	}
}

// peakMB stops the sampler and returns the median per-second peak.
func (r *rssSampler) peakMB() float64 {
	close(r.stop)
	<-r.done
	if len(r.maxima) == 0 {
		return rssMB()
	}
	sort.Float64s(r.maxima)
	return r.maxima[len(r.maxima)/2]
}

// rssMB reads the process's resident set in MiB from /proc/self/statm,
// falling back to the Go runtime's view of its mapped memory.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return float64(pages*int64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}
