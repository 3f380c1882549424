// Command dcbench runs one of the repo's benchmark sweeps on the live
// ring, records it to a JSON snapshot, and then enforces the sweep's
// gate:
//
//	go run ./cmd/dcbench [-short] [-out PATH] <suite>
//
// The suites are frag, cache, hop, failover, join, tier and uring. Each
// runs at fixed sizes (small CI sizes under -short) and a fixed seed, so
// a snapshot is reproducible from the command line alone. The snapshot
// (BENCH_<suite>.json by default) is always written first: the suite
// name, date, size, seed and host, then the sweep's own fields. A
// failed gate then exits non-zero, so a regression can never produce a
// quiet green run. On a kernel without io_uring the uring suite records
// the tcp baseline only and passes (a skip, not a failure).
// scripts/bench.sh runs every suite; CI runs each with -short.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/live"
)

// result is what every sweep returns: a printable report and its gate.
type result interface {
	String() string
	Gate(short bool) error
}

// suite is one sweep: its name (which also names the default snapshot,
// BENCH_<name>.json), its fixed dataset seed, and the sweep itself at
// full or -short sizes.
type suite struct {
	name string
	seed int64
	run  func(short bool, seed int64) (result, error)
}

var suites = []suite{
	{"frag", 42, func(short bool, seed int64) (result, error) {
		// lineitem rows, queries per setting, FragmentRows settings (0 = off)
		rows, queries, frags := 1<<20, 24, []int{0, 262144, 65536, 16384}
		if short {
			rows, queries, frags = 1<<17, 6, []int{0, 8192, 4096} // 16- and 32-way splits: well past the 8× gate
		}
		return experiments.FragmentSweep(rows, 3, queries, frags, seed)
	}},
	{"cache", 42, func(short bool, seed int64) (result, error) {
		// lineitem rows, repeats per setting, think time between repeats
		rows, repeats, think := 1<<20, 160, 8*time.Millisecond
		if short {
			rows, repeats, think = 1<<17, 25, 2*time.Millisecond
		}
		return experiments.CacheSweep(rows, 3, repeats, think, []int{0, 64 << 20}, live.CacheLOI, seed)
	}},
	{"hop", 42, func(short bool, seed int64) (result, error) {
		// lineitem rows, queries per setting, FragmentRows (64 fragments)
		rows, queries, fragRows := 1<<20, 24, 16384
		if short {
			rows, queries, fragRows = 1<<17, 6, 2048 // 64-way split at 128K rows: same fill regime as the full run
		}
		return experiments.HopSweep(rows, 3, queries, fragRows, []int{0, 1 << 20}, seed)
	}},
	{"failover", 42, func(short bool, seed int64) (result, error) {
		// lineitem rows, queries per ring size, ring sizes (one node killed in each)
		rows, queries, sizes := 1<<17, 300, []int{3, 4, 5}
		if short {
			rows, queries, sizes = 1<<15, 150, []int{3, 5}
		}
		return experiments.FailoverSweep(rows, 8, queries, sizes, seed)
	}},
	{"join", 42, func(short bool, seed int64) (result, error) {
		// lineitem rows, queries per ring size; one node joins each pre-join size
		rows, queries := 1<<17, 300
		if short {
			rows, queries = 1<<15, 150
		}
		return experiments.JoinSweep(rows, 8, queries, []int{3, 4}, seed)
	}},
	{"tier", 1, func(short bool, seed int64) (result, error) {
		opts := experiments.DefaultTierOpts()
		if short {
			opts = opts.Short()
		}
		opts.Seed = seed
		res, err := experiments.TierSweep(opts)
		return tierResult{res}, err
	}},
	{"uring", 42, func(short bool, seed int64) (result, error) {
		// lineitem rows, queries per backend, FragmentRows (64 fragments)
		rows, queries, fragRows := 1<<20, 24, 16384
		if short {
			rows, queries, fragRows = 1<<17, 6, 2048 // 64-way split at 128K rows: same fragment fan-out as the full run
		}
		return experiments.UringSweep(rows, 3, queries, fragRows, []string{"tcp", "uring"}, seed)
	}},
}

// tierResult adapts the tier sweep, whose gate is the same at every size.
type tierResult struct{ *experiments.TierResult }

func (r tierResult) Gate(bool) error { return r.TierResult.Gate() }

// host records the machine a snapshot was taken on, so a figure (or a
// gate that only held there) is read against its hardware.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
}

func thisHost() host {
	kernel := runtime.GOOS
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel += " " + strings.TrimSpace(string(b))
	}
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernel,
		Go:         runtime.Version(),
	}
}

// envelope is the head every snapshot shares.
type envelope struct {
	Suite string `json:"suite"`
	Date  string `json:"date"`
	Short bool   `json:"short"`
	Seed  int64  `json:"seed"`
	Host  host   `json:"host"`
}

// snapshot renders env followed by the result's own fields as one
// indented JSON object.
func snapshot(env envelope, res any) ([]byte, error) {
	head, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	if len(body) < 2 || body[0] != '{' {
		return nil, fmt.Errorf("result is not a JSON object: %.40s", body)
	}
	flat := head
	if len(body) > 2 {
		flat = append(append(head[:len(head)-1], ','), body[1:]...)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, flat, "", "  "); err != nil {
		return nil, err
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

func main() {
	short := flag.Bool("short", false, "CI smoke: small sizes")
	out := flag.String("out", "", "snapshot path (default BENCH_<suite>.json)")
	flag.Usage = func() {
		names := make([]string, len(suites))
		for i, s := range suites {
			names[i] = s.name
		}
		fmt.Fprintf(os.Stderr, "usage: dcbench [-short] [-out PATH] <suite>\nsuites: %s\n", strings.Join(names, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var s *suite
	for i := range suites {
		if suites[i].name == flag.Arg(0) {
			s = &suites[i]
		}
	}
	if s == nil {
		fmt.Fprintf(os.Stderr, "dcbench: unknown suite %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + s.name + ".json"
	}

	fmt.Printf("== %s sweep (short=%v, seed %d) ==\n", s.name, *short, s.seed)
	res, err := s.run(*short, s.seed)
	if err != nil {
		fatal("%s: sweep: %v", s.name, err)
	}
	fmt.Print(res)

	buf, err := snapshot(envelope{
		Suite: s.name,
		Date:  time.Now().UTC().Format(time.RFC3339),
		Short: *short,
		Seed:  s.seed,
		Host:  thisHost(),
	}, res)
	if err != nil {
		fatal("%s: encode: %v", s.name, err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal("%s: write: %v", s.name, err)
	}
	fmt.Printf("== wrote %s ==\n", path)

	if err := res.Gate(*short); err != nil {
		fatal("%s: gate: %v", s.name, err)
	}
	fmt.Printf("== %s gate: ok ==\n", s.name)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dcbench: "+format+"\n", args...)
	os.Exit(1)
}
