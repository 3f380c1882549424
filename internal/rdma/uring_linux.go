//go:build linux

package rdma

// The io_uring queue-pair provider. Same wire format as tcpQP (4-byte
// big-endian length prefix + payload, so the two backends interoperate
// across a link), different kernel interface:
//
//   - two small rings per endpoint (send and receive), set up with raw
//     io_uring_setup/io_uring_enter/io_uring_register syscalls — no cgo;
//   - the Messenger's pooled send regions are pinned once with
//     IORING_REGISTER_BUFFERS, so a PostSend from a region becomes a
//     single WRITE_FIXED SQE straight out of the registered buffer — the
//     kernel DMA-maps it up front instead of pinning per call;
//   - each posted message (header + payload parts) is a linked SQE
//     chain, and the send loop drains everything queued into one chain
//     per submission, so one io_uring_enter(submit-and-wait) covers many
//     queued messages — this is where the syscalls/hop win over the
//     write-syscall-per-message netpoller path comes from;
//   - receives land in one registered staging buffer via READ_FIXED and
//     are framed in user space, so back-to-back hop envelopes arrive
//     several frames per syscall;
//   - both loops run on runtime.LockOSThread-pinned OS threads: the
//     completion path never migrates cores, and a blocking
//     submit-and-wait parks the thread in the kernel instead of
//     bouncing through the netpoller's epoll/futex machinery.
//
// Error semantics match the (fixed) tcpQP: a wire failure fails the
// pending completion with the error and tears the pair down — a peer is
// never left mid-frame.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Raw syscall numbers — identical across the 64-bit Linux ports.
const (
	sysIoUringSetup    = 425
	sysIoUringEnter    = 426
	sysIoUringRegister = 427
)

// ABI constants from include/uapi/linux/io_uring.h.
const (
	uringOffSQRing = 0
	uringOffCQRing = 0x8000000
	uringOffSQEs   = 0x10000000

	uringFeatSingleMmap = 1 << 0

	uringOpReadFixed  = 4
	uringOpWriteFixed = 5
	uringOpSend       = 26

	uringEnterGetevents = 1

	uringSQEIOLink = 4 // IOSQE_IO_LINK

	uringRegisterBuffers = 0

	msgWaitall = 0x100  // MSG_WAITALL: kernels ≥5.19 retry short sends
	msgMore    = 0x8000 // MSG_MORE: hold this segment for coalescing with the next
)

type uringSQOffsets struct {
	head, tail, ringMask, ringEntries uint32
	flags, dropped, array, resv1      uint32
	userAddr                          uint64
}

type uringCQOffsets struct {
	head, tail, ringMask, ringEntries uint32
	overflow, cqes, flags, resv1      uint32
	userAddr                          uint64
}

type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFD         uint32
	resv         [3]uint32
	sqOff        uringSQOffsets
	cqOff        uringCQOffsets
}

// uringSQE is struct io_uring_sqe (64 bytes).
type uringSQE struct {
	opcode      uint8
	flags       uint8
	ioprio      uint16
	fd          int32
	off         uint64
	addr        uint64
	len         uint32
	opFlags     uint32 // rw_flags / msg_flags union
	userData    uint64
	bufIndex    uint16
	personality uint16
	spliceFdIn  int32
	pad         [2]uint64
}

// uringCQE is struct io_uring_cqe (16 bytes).
type uringCQE struct {
	userData uint64
	res      int32
	flags    uint32
}

type uringIovec struct {
	base unsafe.Pointer
	len  uintptr
}

// uring is one io_uring instance: the mmapped submission and completion
// rings plus the SQE array. It is owned by exactly one goroutine (the
// send or receive loop), so only the kernel-shared head/tail words need
// atomic access.
type uring struct {
	fd        int
	sqMem     []byte
	cqMem     []byte // aliases sqMem under IORING_FEAT_SINGLE_MMAP
	sqeMem    []byte
	singleMap bool

	sqHead    *uint32
	sqTail    *uint32
	sqMask    uint32
	sqArray   []uint32
	sqEntries uint32
	sqes      []uringSQE

	cqHead *uint32
	cqTail *uint32
	cqMask uint32
	cqes   []uringCQE
}

// setupUring creates a plain ring: every submission is an
// io_uring_enter.
func setupUring(entries uint32) (*uring, error) {
	var p uringParams
	fd, _, errno := syscall.Syscall(sysIoUringSetup, uintptr(entries),
		uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("io_uring_setup: %w", errno)
	}
	u := &uring{fd: int(fd)}
	ok := false
	defer func() {
		if !ok {
			u.close()
		}
	}()

	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(uringCQE{}))
	u.singleMap = p.features&uringFeatSingleMmap != 0
	if u.singleMap {
		size := sqSize
		if cqSize > size {
			size = cqSize
		}
		mem, err := syscall.Mmap(u.fd, uringOffSQRing, size,
			syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			return nil, fmt.Errorf("mmap sq/cq ring: %w", err)
		}
		u.sqMem, u.cqMem = mem, mem
	} else {
		mem, err := syscall.Mmap(u.fd, uringOffSQRing, sqSize,
			syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			return nil, fmt.Errorf("mmap sq ring: %w", err)
		}
		u.sqMem = mem
		mem, err = syscall.Mmap(u.fd, uringOffCQRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			return nil, fmt.Errorf("mmap cq ring: %w", err)
		}
		u.cqMem = mem
	}
	sqeMem, err := syscall.Mmap(u.fd, uringOffSQEs,
		int(p.sqEntries)*int(unsafe.Sizeof(uringSQE{})),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("mmap sqes: %w", err)
	}
	u.sqeMem = sqeMem

	u.sqHead = (*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.head]))
	u.sqTail = (*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.tail]))
	u.sqMask = *(*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.ringMask]))
	u.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.array])), p.sqEntries)
	u.sqEntries = p.sqEntries
	u.sqes = unsafe.Slice((*uringSQE)(unsafe.Pointer(&u.sqeMem[0])), p.sqEntries)

	u.cqHead = (*uint32)(unsafe.Pointer(&u.cqMem[p.cqOff.head]))
	u.cqTail = (*uint32)(unsafe.Pointer(&u.cqMem[p.cqOff.tail]))
	u.cqMask = *(*uint32)(unsafe.Pointer(&u.cqMem[p.cqOff.ringMask]))
	u.cqes = unsafe.Slice((*uringCQE)(unsafe.Pointer(&u.cqMem[p.cqOff.cqes])), p.cqEntries)

	ok = true
	return u, nil
}

// stage writes one SQE at slot tail+k without publishing it. A linked
// chain is staged completely and published in one tail store (publish),
// so the kernel never sees a chain whose continuation is not written
// yet — the link ordering is what serializes the stream.
// Returns false when the SQ lacks room (callers size chunks to fit).
func (u *uring) stage(e *uringSQE, k uint32) bool {
	tail := atomic.LoadUint32(u.sqTail)
	head := atomic.LoadUint32(u.sqHead)
	if tail+k-head >= u.sqEntries {
		return false
	}
	idx := (tail + k) & u.sqMask
	u.sqes[idx] = *e
	u.sqArray[idx] = idx
	return true
}

// publish makes n staged SQEs visible to the kernel.
func (u *uring) publish(n uint32) {
	atomic.StoreUint32(u.sqTail, atomic.LoadUint32(u.sqTail)+n)
}

// push places and publishes one SQE at the submission tail.
func (u *uring) push(e *uringSQE) bool {
	if !u.stage(e, 0) {
		return false
	}
	u.publish(1)
	return true
}

// enter is io_uring_enter: submit toSubmit queued SQEs and, with
// IORING_ENTER_GETEVENTS, wait until minComplete completions are
// available.
func (u *uring) enter(toSubmit, minComplete, flags uint32) (int, error) {
	n, _, errno := syscall.Syscall6(sysIoUringEnter, uintptr(u.fd),
		uintptr(toSubmit), uintptr(minComplete), uintptr(flags), 0, 0)
	if errno != 0 {
		return int(n), errno
	}
	return int(n), nil
}

// reap copies available CQEs into out and advances the CQ head.
func (u *uring) reap(out []uringCQE) int {
	head := atomic.LoadUint32(u.cqHead)
	tail := atomic.LoadUint32(u.cqTail)
	n := 0
	for head != tail && n < len(out) {
		out[n] = u.cqes[head&u.cqMask]
		head++
		n++
	}
	atomic.StoreUint32(u.cqHead, head)
	return n
}

// registerBuffers pins the iovecs with IORING_REGISTER_BUFFERS; fixed
// read/write SQEs then reference them by index with no per-op pinning.
func (u *uring) registerBuffers(iovs []uringIovec) error {
	_, _, errno := syscall.Syscall6(sysIoUringRegister, uintptr(u.fd),
		uringRegisterBuffers, uintptr(unsafe.Pointer(&iovs[0])),
		uintptr(len(iovs)), 0, 0)
	if errno != 0 {
		return fmt.Errorf("io_uring_register(BUFFERS): %w", errno)
	}
	return nil
}

func (u *uring) close() {
	if u.sqeMem != nil {
		syscall.Munmap(u.sqeMem)
	}
	if u.cqMem != nil && !u.singleMap {
		syscall.Munmap(u.cqMem)
	}
	if u.sqMem != nil {
		syscall.Munmap(u.sqMem)
	}
	syscall.Close(u.fd)
}

// ---------------------------------------------------------------------
// uringQP
// ---------------------------------------------------------------------

const (
	// uringSendEntries sizes the send SQ: a v3 batch envelope posted
	// through PostSendVec is one header + up to 64 fragment parts, so
	// 256 entries let several queued messages chain into one submission.
	uringSendEntries = 256
	// uringRecvEntries sizes the receive SQ: the receive loop keeps at
	// most one READ_FIXED in flight.
	uringRecvEntries = 8
	// uringStagingSlack is extra registered staging beyond two maximum
	// frames, so one speculative read can capture several back-to-back
	// envelopes plus the head of the next.
	uringStagingSlack = 64 << 10
	// uringMaxBatchMsgs bounds how many queued messages the send loop
	// folds into one linked-chain submission.
	uringMaxBatchMsgs = 16
)

// uringSend is one queued message: the frame header plus payload parts.
// bufIdx[i] is the registered-buffer index carrying parts[i], or -1 when
// the part goes out as a plain send.
type uringSend struct {
	hdr    [4]byte
	parts  [][]byte
	bufIdx []int
	total  int
}

type uringQP struct {
	conn net.Conn
	fd   int // dup of the socket fd, owned by the queue pair

	mu      sync.Mutex
	aborted bool

	sendCQ   chan Completion
	recvCQ   chan Completion
	sendQ    chan uringSend
	recvPend chan *MemoryRegion
	done     chan struct{}
	wg       sync.WaitGroup

	closeOnce sync.Once

	sring *uring
	rring *uring

	// Registered send-buffer table: base pointer and length per
	// IORING_REGISTER_BUFFERS index on sring. Written once by
	// RegisterBuffers before any traffic, read by PostSend.
	regMu     sync.RWMutex
	regBase   []uintptr
	regLen    []int
	sendsSeen int64 // atomic: sends posted (guards late registration)
	maxMsg    int
	staging   []byte // registered READ_FIXED staging, index 0 on rring

	syscalls int64    // atomic: io_uring_enter calls
	submits  int64    // atomic: enters that submitted ≥1 SQE
	cqeBatch [8]int64 // atomic: completions reaped per enter, bucketed
}

// NewUring wraps an established socket connection in an io_uring queue
// pair. maxMsg bounds a single message and sizes the registered receive
// staging buffer. The connection's fd is duped so the queue pair can
// shut it down independently of the net.Conn's lifecycle.
func NewUring(conn net.Conn, maxMsg int) (QueuePair, error) {
	if maxMsg <= 0 {
		return nil, fmt.Errorf("rdma: uring: non-positive max message size")
	}
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("rdma: uring: connection exposes no raw fd")
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("rdma: uring: raw conn: %w", err)
	}
	dupFD := -1
	var dupErr error
	if err := raw.Control(func(fd uintptr) {
		dupFD, dupErr = syscall.Dup(int(fd))
	}); err != nil {
		return nil, fmt.Errorf("rdma: uring: control: %w", err)
	}
	if dupErr != nil {
		return nil, fmt.Errorf("rdma: uring: dup: %w", dupErr)
	}
	syscall.CloseOnExec(dupFD)

	// Size the kernel socket buffers to a whole frame (the kernel clamps
	// to net.core.{w,r}mem_max): fixed-buffer writes of hop envelopes
	// then rarely return short and speculative reads pull whole frames,
	// which is what keeps submissions at one enter per batch instead of
	// one per socket-buffer-sized slice. Best effort — a refusal just
	// means more resubmit rounds.
	bufBytes := 4 + maxMsg + uringStagingSlack
	syscall.SetsockoptInt(dupFD, syscall.SOL_SOCKET, syscall.SO_SNDBUF, bufBytes)
	syscall.SetsockoptInt(dupFD, syscall.SOL_SOCKET, syscall.SO_RCVBUF, bufBytes)

	qp := &uringQP{
		conn:     conn,
		fd:       dupFD,
		sendCQ:   make(chan Completion, 64),
		recvCQ:   make(chan Completion, 64),
		sendQ:    make(chan uringSend, 64),
		recvPend: make(chan *MemoryRegion, 64),
		done:     make(chan struct{}),
		maxMsg:   maxMsg,
	}
	// One enter both submits and waits for a whole linked chain.
	qp.sring, err = setupUring(uringSendEntries)
	if err != nil {
		syscall.Close(dupFD)
		return nil, fmt.Errorf("rdma: uring: send ring: %w", err)
	}
	qp.rring, err = setupUring(uringRecvEntries)
	if err != nil {
		qp.sring.close()
		syscall.Close(dupFD)
		return nil, fmt.Errorf("rdma: uring: recv ring: %w", err)
	}
	qp.staging = make([]byte, 2*(4+maxMsg)+uringStagingSlack)
	if err := qp.rring.registerBuffers([]uringIovec{
		{base: unsafe.Pointer(&qp.staging[0]), len: uintptr(len(qp.staging))},
	}); err != nil {
		qp.rring.close()
		qp.sring.close()
		syscall.Close(dupFD)
		return nil, fmt.Errorf("rdma: uring: register staging: %w", err)
	}
	qp.wg.Add(2)
	go qp.sendLoop()
	go qp.recvLoop()
	return qp, nil
}

// RegisterBuffers implements BufferRegistrar: the regions are pinned
// with IORING_REGISTER_BUFFERS on the send ring, and any later PostSend
// from one of them goes out as a WRITE_FIXED SQE with no copy.
// Registration is once-only and must happen before the first send (the
// Messenger registers its pool at construction).
func (qp *uringQP) RegisterBuffers(regions []*MemoryRegion) error {
	qp.mu.Lock()
	if qp.aborted {
		qp.mu.Unlock()
		return ErrClosed
	}
	qp.mu.Unlock()
	if atomic.LoadInt64(&qp.sendsSeen) > 0 {
		return fmt.Errorf("rdma: uring: RegisterBuffers after traffic started")
	}
	qp.regMu.Lock()
	defer qp.regMu.Unlock()
	if qp.regBase != nil {
		return fmt.Errorf("rdma: uring: buffers already registered")
	}
	iovs := make([]uringIovec, 0, len(regions))
	base := make([]uintptr, 0, len(regions))
	lens := make([]int, 0, len(regions))
	for _, mr := range regions {
		b := mr.Bytes()
		if len(b) == 0 {
			return fmt.Errorf("rdma: uring: cannot register empty region")
		}
		iovs = append(iovs, uringIovec{base: unsafe.Pointer(&b[0]), len: uintptr(len(b))})
		base = append(base, uintptr(unsafe.Pointer(&b[0])))
		lens = append(lens, len(b))
	}
	if err := qp.sring.registerBuffers(iovs); err != nil {
		return err
	}
	qp.regBase, qp.regLen = base, lens
	return nil
}

// regIndex returns the registered-buffer index whose pinned range holds
// buf, or -1.
func (qp *uringQP) regIndex(buf []byte) int {
	if len(buf) == 0 {
		return -1
	}
	qp.regMu.RLock()
	defer qp.regMu.RUnlock()
	p := uintptr(unsafe.Pointer(&buf[0]))
	for i, b := range qp.regBase {
		if p >= b && p+uintptr(len(buf)) <= b+uintptr(qp.regLen[i]) {
			return i
		}
	}
	return -1
}

func (qp *uringQP) PostSend(mr *MemoryRegion, n int) error {
	if !mr.registered {
		return ErrNotRegistered
	}
	if n > len(mr.buf) {
		return ErrTooLarge
	}
	qp.mu.Lock()
	if qp.aborted {
		qp.mu.Unlock()
		return ErrClosed
	}
	qp.mu.Unlock()
	atomic.AddInt64(&qp.sendsSeen, 1)
	s := uringSend{total: n}
	binary.BigEndian.PutUint32(s.hdr[:], uint32(n))
	if n > 0 {
		if idx := qp.regIndex(mr.buf); idx >= 0 {
			// Registered region: the caller holds it until the send
			// completion (the Messenger contract), so the kernel reads
			// straight from the pinned buffer — no copy.
			s.parts = [][]byte{mr.buf[:n]}
			s.bufIdx = []int{idx}
		} else {
			data := make([]byte, n)
			copy(data, mr.buf[:n])
			s.parts = [][]byte{data}
			s.bufIdx = []int{-1}
		}
	}
	select {
	case qp.sendQ <- s:
		return nil
	case <-qp.done:
		return ErrClosed
	}
}

// PostSendVec implements VectoredSender: header and parts become one
// linked SQE chain, submitted (with anything else queued) in a single
// io_uring_enter — the uring analogue of tcpQP's gather write, same
// zero-assembly-copy contract (parts stay untouched until completion).
// A chain longer than the SQ splits into sequential submissions, still
// copy-free.
func (qp *uringQP) PostSendVec(bufs net.Buffers) error {
	qp.mu.Lock()
	if qp.aborted {
		qp.mu.Unlock()
		return ErrClosed
	}
	qp.mu.Unlock()
	atomic.AddInt64(&qp.sendsSeen, 1)
	s := uringSend{}
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		s.parts = append(s.parts, b)
		s.bufIdx = append(s.bufIdx, qp.regIndex(b))
		s.total += len(b)
	}
	binary.BigEndian.PutUint32(s.hdr[:], uint32(s.total))
	select {
	case qp.sendQ <- s:
		return nil
	case <-qp.done:
		return ErrClosed
	}
}

func (qp *uringQP) PostRecv(mr *MemoryRegion) error {
	if !mr.registered {
		return ErrNotRegistered
	}
	qp.mu.Lock()
	if qp.aborted {
		qp.mu.Unlock()
		return ErrClosed
	}
	qp.mu.Unlock()
	select {
	case qp.recvPend <- mr:
		return nil
	default:
		return ErrQueueFull
	}
}

func (qp *uringQP) SendCompletions() <-chan Completion { return qp.sendCQ }
func (qp *uringQP) RecvCompletions() <-chan Completion { return qp.recvCQ }
func (qp *uringQP) Done() <-chan struct{}              { return qp.done }

// WireCounters implements WireStatter.
func (qp *uringQP) WireCounters() WireCounters {
	var c WireCounters
	c.Syscalls = atomic.LoadInt64(&qp.syscalls)
	c.Submits = atomic.LoadInt64(&qp.submits)
	for i := range c.CqeBatch {
		c.CqeBatch[i] = atomic.LoadInt64(&qp.cqeBatch[i])
	}
	return c
}

// abort tears the wire down without waiting for the loops — callable
// from inside a loop. shutdown(2) on the duped fd completes any
// in-flight io_uring reads (EOF) and writes (EPIPE), unblocking a
// thread parked in submit-and-wait.
func (qp *uringQP) abort() {
	qp.mu.Lock()
	if qp.aborted {
		qp.mu.Unlock()
		return
	}
	qp.aborted = true
	qp.mu.Unlock()
	close(qp.done)
	syscall.Shutdown(qp.fd, syscall.SHUT_RDWR)
	qp.conn.Close()
}

func (qp *uringQP) Close() error {
	qp.abort()
	qp.closeOnce.Do(func() {
		qp.wg.Wait()
		close(qp.recvCQ)
		qp.sring.close()
		qp.rring.close()
		syscall.Close(qp.fd)
	})
	return nil
}

// enterCounted wraps enter with the syscall instrumentation.
func (qp *uringQP) enterCounted(u *uring, toSubmit, minComplete, flags uint32) (int, error) {
	atomic.AddInt64(&qp.syscalls, 1)
	return u.enter(toSubmit, minComplete, flags)
}

// reapCounted wraps reap with the CQE-batch histogram.
func (qp *uringQP) reapCounted(u *uring, out []uringCQE) int {
	n := u.reap(out)
	if n > 0 {
		atomic.AddInt64(&qp.cqeBatch[cqeBucket(n)], 1)
	}
	return n
}

// ---------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------

// sendSeg is one SQE's worth of a batch: a header or payload slice, with
// the owning message index so completions can be delivered when a
// message's last segment finishes.
type sendSeg struct {
	buf    []byte
	bufIdx int // registered index for WRITE_FIXED, -1 for plain send
	msg    int
	last   bool // final segment of its message
}

func (qp *uringQP) sendLoop() {
	defer qp.wg.Done()
	// Pin: the submit side of the data loop stays on one core; the
	// blocking submit-and-wait parks this thread in the kernel rather
	// than round-tripping through the netpoller.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	batch := make([]uringSend, 0, uringMaxBatchMsgs)
	for {
		select {
		case <-qp.done:
			return
		case s := <-qp.sendQ:
			batch = append(batch[:0], s)
			// Fold in whatever else is already queued: the whole batch
			// becomes one linked chain, one enter.
		drain:
			for len(batch) < uringMaxBatchMsgs {
				select {
				case s2 := <-qp.sendQ:
					batch = append(batch, s2)
				default:
					break drain
				}
			}
			if err := qp.writeBatch(batch); err != nil {
				// Wire failure: every queued message fails and the pair
				// tears down — never leave the peer mid-frame.
				qp.abort()
				return
			}
		}
	}
}

// writeBatch turns the queued messages into one linked SQE chain
// (header, then payload parts, per message), submits with a single
// blocking io_uring_enter, and resolves short writes by resubmitting
// from the shorted segment (a broken link cancels everything after it,
// so byte order on the stream is preserved). Completions are delivered
// per message as its last segment finishes. Returns a non-nil error only
// on a wire failure, after failing the affected completions.
func (qp *uringQP) writeBatch(batch []uringSend) error {
	segs := make([]sendSeg, 0, len(batch)*2)
	for i := range batch {
		s := &batch[i]
		segs = append(segs, sendSeg{buf: s.hdr[:], bufIdx: -1, msg: i, last: len(s.parts) == 0})
		for j, p := range s.parts {
			segs = append(segs, sendSeg{buf: p, bufIdx: s.bufIdx[j], msg: i, last: j == len(s.parts)-1})
		}
	}
	results := make([]uringCQE, qp.sring.sqEntries)
	next := 0
	for next < len(segs) {
		chunk := len(segs) - next
		if chunk > int(qp.sring.sqEntries) {
			chunk = int(qp.sring.sqEntries)
		}
		for k := 0; k < chunk; k++ {
			seg := &segs[next+k]
			e := uringSQE{
				fd:       int32(qp.fd),
				addr:     uint64(uintptr(unsafe.Pointer(&seg.buf[0]))),
				len:      uint32(len(seg.buf)),
				userData: uint64(k),
			}
			if seg.bufIdx >= 0 {
				e.opcode = uringOpWriteFixed
				e.bufIndex = uint16(seg.bufIdx)
			} else {
				e.opcode = uringOpSend
				e.opFlags = msgWaitall
				if k < chunk-1 {
					// Cork everything but the chain's tail: without this
					// the 4-byte frame header ships as its own TCP segment
					// (Nagle is off on these links) and the peer pays a
					// whole syscall to read 4 bytes. The next linked write
					// flushes the corked bytes along with its own.
					e.opFlags |= msgMore
				}
			}
			if k < chunk-1 {
				e.flags = uringSQEIOLink
			}
			if !qp.sring.stage(&e, uint32(k)) {
				return qp.failFrom(batch, segs, next, fmt.Errorf("rdma: uring: submission queue overflow"))
			}
		}
		// Publish the whole chain with one tail store: the kernel must
		// never observe a half-staged link chain.
		qp.sring.publish(uint32(chunk))
		atomic.AddInt64(&qp.submits, 1)
		if err := qp.submitAndReap(chunk, results[:chunk]); err != nil {
			return qp.failFrom(batch, segs, next, err)
		}
		// Walk the chunk in submission order: find the first segment
		// that failed or wrote short; everything before it is done.
		advanced := chunk
		var hardErr error
		for k := 0; k < chunk; k++ {
			res := results[k].res
			seg := &segs[next+k]
			if res < 0 {
				errno := syscall.Errno(-res)
				if errno == syscall.ECANCELED {
					// Link broken upstream; resubmitted next round.
					advanced = k
					break
				}
				hardErr = errno
				advanced = k
				break
			}
			if int(res) < len(seg.buf) {
				// Short write: the stream took res bytes of this
				// segment; resume from the remainder.
				seg.buf = seg.buf[res:]
				advanced = k
				break
			}
		}
		if hardErr != nil {
			return qp.failFrom(batch, segs, next+advanced, hardErr)
		}
		// Deliver completions for messages fully written.
		for k := 0; k < advanced; k++ {
			if segs[next+k].last {
				qp.sendCQ <- Completion{Bytes: batch[segs[next+k].msg].total}
			}
		}
		next += advanced
	}
	return nil
}

// submitAndReap collects exactly n CQEs for the n published SQEs into
// results, ordered by userData (= position in the chunk). One enter
// both submits and waits; EINTR restarts the wait without resubmitting.
func (qp *uringQP) submitAndReap(n int, results []uringCQE) error {
	got := 0
	scratch := make([]uringCQE, n)
	collect := func(k int) {
		for i := 0; i < k; i++ {
			idx := int(scratch[i].userData)
			if idx >= 0 && idx < n {
				results[idx] = scratch[i]
			}
			got++
		}
	}
	toSubmit := uint32(n)
	for got < n {
		_, err := qp.enterCounted(qp.sring, toSubmit, uint32(n-got), uringEnterGetevents)
		toSubmit = 0
		if err != nil && err != syscall.EINTR {
			return fmt.Errorf("rdma: uring: enter: %w", err)
		}
		collect(qp.reapCounted(qp.sring, scratch))
	}
	return nil
}

// failFrom fails the completion of the message owning segs[at] and of
// every later message in the batch, then returns err (messages fully
// written before the failure already got their success completions).
func (qp *uringQP) failFrom(batch []uringSend, segs []sendSeg, at int, err error) error {
	failed := -1
	for k := at; k < len(segs); k++ {
		if segs[k].msg != failed {
			failed = segs[k].msg
			select {
			case qp.sendCQ <- Completion{Err: err}:
			default:
			}
		}
	}
	return err
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

func (qp *uringQP) recvLoop() {
	defer qp.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var (
		rpos, wpos int
		skip       int // bytes of an oversized frame still to discard
		results    [1]uringCQE
	)
	fail := func(err error) {
		select {
		case mr := <-qp.recvPend:
			_ = mr
			select {
			case qp.recvCQ <- Completion{Err: err}:
			default:
			}
		default:
		}
	}
	for {
		// Deliver every complete frame already in staging: back-to-back
		// hop envelopes landed by one speculative read each cost zero
		// further syscalls here.
		for {
			if skip > 0 {
				n := wpos - rpos
				if n > skip {
					n = skip
				}
				rpos += n
				skip -= n
				if skip > 0 {
					break
				}
			}
			if wpos-rpos < 4 {
				break
			}
			n := int(binary.BigEndian.Uint32(qp.staging[rpos : rpos+4]))
			if 4+n > len(qp.staging) {
				// Frame can never fit the staging buffer: report and
				// discard its payload as it streams in.
				select {
				case qp.recvCQ <- Completion{Err: ErrTooLarge}:
				default:
				}
				rpos += 4
				skip = n
				continue
			}
			if wpos-rpos < 4+n {
				break
			}
			var mr *MemoryRegion
			select {
			case mr = <-qp.recvPend:
			case <-qp.done:
				return
			}
			if n > len(mr.buf) {
				qp.recvCQ <- Completion{Err: ErrTooLarge}
				rpos += 4 + n
				continue
			}
			copy(mr.buf[:n], qp.staging[rpos+4:rpos+4+n])
			qp.recvCQ <- Completion{Bytes: n}
			rpos += 4 + n
		}
		// Compact the partial tail to the front and read more.
		if rpos > 0 {
			copy(qp.staging, qp.staging[rpos:wpos])
			wpos -= rpos
			rpos = 0
		}
		e := uringSQE{
			opcode:   uringOpReadFixed,
			fd:       int32(qp.fd),
			addr:     uint64(uintptr(unsafe.Pointer(&qp.staging[wpos]))),
			len:      uint32(len(qp.staging) - wpos),
			userData: 1,
		}
		if !qp.rring.push(&e) {
			fail(fmt.Errorf("rdma: uring: recv queue overflow"))
			return
		}
		atomic.AddInt64(&qp.submits, 1)
		toSubmit := uint32(1)
		for {
			_, err := qp.enterCounted(qp.rring, toSubmit, 1, uringEnterGetevents)
			toSubmit = 0
			if err != nil && err != syscall.EINTR {
				fail(fmt.Errorf("rdma: uring: recv enter: %w", err))
				return
			}
			if qp.reapCounted(qp.rring, results[:]) > 0 {
				break
			}
		}
		res := results[0].res
		switch {
		case res > 0:
			wpos += int(res)
		case res == 0:
			fail(io.EOF)
			return
		default:
			errno := syscall.Errno(-res)
			if errno == syscall.EINTR || errno == syscall.EAGAIN {
				continue
			}
			fail(errno)
			return
		}
	}
}

// ---------------------------------------------------------------------
// Kernel probe
// ---------------------------------------------------------------------

// probeUring answers "can the uring backend run here?" by doing exactly
// what the backend does: ring setup, staging registration, a
// registered-buffer PostSend and a framed PostRecv round trip over a
// real loopback TCP connection. seccomp filters that deny the io_uring
// syscalls, kernels without fixed-buffer socket I/O, and locked-down
// memlock limits all fail here and route traffic to the tcp backend.
func probeUring() (bool, string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return false, fmt.Sprintf("probe listen: %v", err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return false, fmt.Sprintf("probe dial: %v", err)
	}
	defer dial.Close()
	acc := <-ch
	if acc.err != nil {
		return false, fmt.Sprintf("probe accept: %v", acc.err)
	}
	defer acc.conn.Close()

	const maxMsg = 4096
	qp, err := NewUring(dial, maxMsg)
	if err != nil {
		return false, fmt.Sprintf("uring setup: %v", err)
	}
	defer qp.Close()
	peer := NewTCP(acc.conn)
	defer peer.Close()

	var dev Device
	sendMR := dev.RegisterMemory(maxMsg)
	recvMR := dev.RegisterMemory(maxMsg)
	peerSend := dev.RegisterMemory(maxMsg)
	peerRecv := dev.RegisterMemory(maxMsg)
	if err := qp.(*uringQP).RegisterBuffers([]*MemoryRegion{sendMR}); err != nil {
		return false, fmt.Sprintf("register buffers: %v", err)
	}
	if err := qp.PostRecv(recvMR); err != nil {
		return false, fmt.Sprintf("post recv: %v", err)
	}
	if err := peer.PostRecv(peerRecv); err != nil {
		return false, fmt.Sprintf("peer post recv: %v", err)
	}

	// uring → tcp: a registered-buffer fixed write.
	msg := []byte("data-cyclotron uring probe")
	copy(sendMR.Bytes(), msg)
	if err := qp.PostSend(sendMR, len(msg)); err != nil {
		return false, fmt.Sprintf("post send: %v", err)
	}
	if c := <-qp.SendCompletions(); c.Err != nil {
		return false, fmt.Sprintf("send completion: %v", c.Err)
	}
	if c := <-peer.RecvCompletions(); c.Err != nil || c.Bytes != len(msg) ||
		string(peerRecv.Bytes()[:c.Bytes]) != string(msg) {
		return false, "fixed-buffer send did not round-trip"
	}

	// tcp → uring: a framed read through the registered staging buffer.
	copy(peerSend.Bytes(), msg)
	if err := peer.PostSend(peerSend, len(msg)); err != nil {
		return false, fmt.Sprintf("peer post send: %v", err)
	}
	if c := <-peer.SendCompletions(); c.Err != nil {
		return false, fmt.Sprintf("peer send completion: %v", c.Err)
	}
	if c := <-qp.RecvCompletions(); c.Err != nil || c.Bytes != len(msg) ||
		string(recvMR.Bytes()[:c.Bytes]) != string(msg) {
		return false, "fixed-buffer recv did not round-trip"
	}
	return true, ""
}
