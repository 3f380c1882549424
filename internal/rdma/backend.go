package rdma

// Backend selection for socket-backed queue pairs. The ring's data links
// can ride two wire engines over the same TCP connection:
//
//   - tcp:   the portable tcpQP — one goroutine pair per endpoint, the Go
//     netpoller underneath, a write/read syscall pair (plus poller
//     wakeups) per message.
//   - uring: the Linux io_uring backend (uring_linux.go) — pre-registered
//     buffers, fixed-buffer SQEs, a LockOSThread-pinned submission loop
//     per endpoint, and batched submission so one io_uring_enter can
//     cover many queued hops.
//
// "auto" probes the kernel once and uses uring when the probe passes,
// falling back to tcp (with the reason recorded) when it does not —
// old kernels, seccomp filters that deny the io_uring syscalls, and
// non-Linux builds all land on the tcp path transparently. An explicit
// "uring" on an unsupported system is a configuration error and is
// reported as one instead of degrading silently.

import (
	"fmt"
	"net"
	"sync"
)

// Backend names the wire engine of a socket-backed queue pair.
type Backend int

// The selectable backends.
const (
	// BackendTCP is the portable netpoller-based provider (tcpQP) — the
	// default, byte-identical to the pre-selector transport.
	BackendTCP Backend = iota
	// BackendAuto selects uring when the kernel supports it, tcp
	// otherwise (probe once, record the fallback reason).
	BackendAuto
	// BackendUring is the io_uring registered-buffer provider. Explicit
	// selection fails loudly when the kernel lacks support.
	BackendUring
)

func (b Backend) String() string {
	switch b {
	case BackendTCP:
		return "tcp"
	case BackendAuto:
		return "auto"
	case BackendUring:
		return "uring"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend maps a config string onto a Backend. The empty string is
// BackendTCP: a zero config keeps today's transport byte for byte.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "tcp":
		return BackendTCP, nil
	case "auto":
		return BackendAuto, nil
	case "uring":
		return BackendUring, nil
	}
	return BackendTCP, fmt.Errorf("rdma: unknown backend %q (want tcp, auto, or uring)", s)
}

// ResolveBackend parses s and resolves "auto" against the kernel probe.
// It returns the backend that will actually carry traffic and, when auto
// degraded to tcp, the reason why. Explicit "uring" on a kernel that
// fails the probe is an error, never a silent downgrade.
func ResolveBackend(s string) (Backend, string, error) {
	b, err := ParseBackend(s)
	if err != nil {
		return BackendTCP, "", err
	}
	switch b {
	case BackendTCP:
		return BackendTCP, "", nil
	case BackendUring:
		if ok, reason := UringSupported(); !ok {
			return BackendTCP, "", fmt.Errorf("rdma: backend uring requested but unavailable: %s", reason)
		}
		return BackendUring, "", nil
	}
	// auto
	if ok, reason := UringSupported(); !ok {
		return BackendTCP, reason, nil
	}
	return BackendUring, "", nil
}

// NewConnQP wraps an established connection in the queue pair the
// resolved backend selects. maxMsg bounds a single message and sizes the
// uring backend's registered receive staging; the tcp backend ignores
// it. If the uring engine fails to come up on this specific connection
// (fd limits, a dup that trips a sandbox) the link degrades to tcp and
// the reason is returned — per-connection resilience on top of the
// kernel-level probe.
func NewConnQP(conn net.Conn, backend Backend, maxMsg int) (QueuePair, string, error) {
	if backend == BackendAuto {
		resolved, reason, err := ResolveBackend("auto")
		if err != nil {
			return nil, "", err
		}
		if resolved != BackendUring {
			return NewTCP(conn), reason, nil
		}
		backend = BackendUring
	}
	if backend != BackendUring {
		return NewTCP(conn), "", nil
	}
	qp, err := NewUring(conn, maxMsg)
	if err != nil {
		return NewTCP(conn), fmt.Sprintf("uring setup failed: %v", err), nil
	}
	return qp, "", nil
}

// WireCounters reports transport work at the syscall layer of one queue
// pair endpoint. For the tcp backend, Syscalls counts the write and read
// calls this layer issues (a lower bound on true kernel crossings: the
// Go netpoller's epoll and futex traffic comes on top). For the uring
// backend, Syscalls counts io_uring_enter calls, Submits the enters that
// pushed at least one SQE, and CqeBatch histograms how many completions
// each reaping enter returned (1, 2, 3-4, 5-8, ..., >64) — the batching
// that lets one syscall cover many queued hops.
type WireCounters struct {
	Syscalls int64
	Submits  int64
	CqeBatch [8]int64
}

// add accumulates o into c (CqeBatch element-wise).
func (c *WireCounters) add(o WireCounters) {
	c.Syscalls += o.Syscalls
	c.Submits += o.Submits
	for i := range c.CqeBatch {
		c.CqeBatch[i] += o.CqeBatch[i]
	}
}

// cqeBucket maps a per-enter completion count onto a CqeBatch index
// (same buckets as the hop fill histogram: 1, 2, 3-4, 5-8, ..., >64).
func cqeBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	case n <= 32:
		return 5
	case n <= 64:
		return 6
	}
	return 7
}

// WireStatter is implemented by queue pairs that count their syscall
// work (tcp and uring; the in-process provider makes no syscalls).
type WireStatter interface {
	WireCounters() WireCounters
}

// BufferRegistrar is implemented by queue pairs that can pin caller
// buffers with the kernel — the io_uring backend registers the
// Messenger's pooled send regions with IORING_REGISTER_BUFFERS, so a
// PostSend from one of them is a fixed-buffer SQE straight out of the
// region, no intermediate copy. Registration happens once, before any
// traffic; a region registered here must stay untouched from PostSend
// until its completion arrives (the contract Messenger already keeps).
type BufferRegistrar interface {
	RegisterBuffers(regions []*MemoryRegion) error
}

// Probe state: resolved once per process, overridable by tests.
var (
	probeOnce   sync.Once
	probeOK     bool
	probeReason string

	forceMu     sync.RWMutex
	forceOff    bool
	forceOffWhy string
)

// UringSupported reports whether the io_uring backend can run on this
// system, probing the kernel once per process: ring setup, buffer
// registration, and a fixed-buffer send/recv round trip over a loopback
// socket pair — exactly the operations the backend issues. The reason
// explains a negative verdict (not linux, ENOSYS under seccomp, probe
// round-trip failure, ...).
func UringSupported() (bool, string) {
	forceMu.RLock()
	off, why := forceOff, forceOffWhy
	forceMu.RUnlock()
	if off {
		return false, why
	}
	probeOnce.Do(func() {
		probeOK, probeReason = probeUring()
	})
	return probeOK, probeReason
}

// ForceUringUnsupported makes UringSupported report false with the given
// reason until the returned restore func runs — the test hook behind the
// backend-selection fallback tests (exercising the unsupported-kernel
// paths on any machine).
func ForceUringUnsupported(reason string) (restore func()) {
	forceMu.Lock()
	forceOff, forceOffWhy = true, reason
	forceMu.Unlock()
	return func() {
		forceMu.Lock()
		forceOff, forceOffWhy = false, ""
		forceMu.Unlock()
	}
}
