package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"
)

// The TCP transport puts a real wire under the collectives: one
// length-prefixed stream per unordered rank pair, a per-peer writer
// goroutine so sends never block on the socket, and a per-peer reader
// goroutine that demultiplexes frames into the shared matcher. Failures
// (reset, EOF, write error) mark the peer dead, which every pending and
// future operation against that peer observes as ErrRankLost.
//
// Bootstrap (rendezvous): rank 0 listens on a well-known address; ranks
// 1..p−1 dial it, register their own data-listener port, and receive the
// full address table back. Rank r then dials every rank q < r (rank 0's
// data conns arrive on the rendezvous listener itself) and accepts a
// conn from every rank q > r, so each pair shares exactly one conn,
// dialed by the higher rank. Hosts are taken from the registering
// conn's remote address, so they are routable wherever the rendezvous
// address is.

// Frame layout: [int64 tag][int64 count][count × float64], all little
// endian. maxFrameElems bounds count so a corrupt or hostile header
// cannot drive a huge allocation.
const maxFrameElems = 1 << 28 // 2 GiB of payload

// Conn-opening preamble kinds on a listener.
const (
	tcpKindRegister = 0 // rendezvous registration: [kind][rank][dataPort]
	tcpKindData     = 1 // pairwise data conn hello: [kind][rank]
)

const tcpDefaultBootstrapTimeout = 60 * time.Second

func encodeFrame(tag int, data []float64) []byte {
	buf := make([]byte, 16+8*len(data))
	binary.LittleEndian.PutUint64(buf[0:], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(len(data))))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[16+8*i:], math.Float64bits(v))
	}
	return buf
}

// frameFirstElems caps the first allocation of a frame's data: 512 KiB.
// A larger frame doubles data as its bytes arrive.
const frameFirstElems = 1 << 16

// readFrame reads one frame from br. It decodes the payload straight out
// of br's buffer, a chunk of at most br.Size() bytes at a time, and grows
// data only with the elements that have arrived, so a header that
// announces more than the stream holds costs no more than what came. A
// stream that ends inside a frame gives io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader) (tag int, data []float64, err error) {
	hdr, err := br.Peek(16)
	if err != nil {
		return 0, nil, frameEOF(err, len(hdr))
	}
	tag = int(int64(binary.LittleEndian.Uint64(hdr[0:])))
	count := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if count < 0 || count > maxFrameElems {
		return 0, nil, fmt.Errorf("mpi: tcp frame announces %d elements", count)
	}
	_, _ = br.Discard(16) // Peek holds these bytes, so it cannot fail
	n := int(count)
	data = make([]float64, 0, min(n, frameFirstElems))
	for len(data) < n {
		if len(data) == cap(data) {
			data = slices.Grow(data, min(n, 2*cap(data))-len(data))
		}
		k := min(n, cap(data), len(data)+br.Size()/8) - len(data)
		b, err := br.Peek(8 * k)
		if err != nil {
			return 0, nil, frameEOF(err, 16+8*len(data))
		}
		for i := range k {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
		_, _ = br.Discard(8 * k) // as above
	}
	return tag, data, nil
}

// frameEOF turns an EOF after got bytes of a frame into
// io.ErrUnexpectedEOF: only a stream that ends between frames ends
// cleanly.
func frameEOF(err error, got int) error {
	if errors.Is(err, io.EOF) && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// tcpPeer is one live pairwise connection.
type tcpPeer struct {
	rank int
	conn net.Conn
	out  chan []byte
	gone chan struct{} // closed once the peer is marked dead
	once sync.Once
}

// tcpTransport implements Transport over pairwise TCP conns.
type tcpTransport struct {
	rank, size int
	m          *matcher
	peers      []*tcpPeer // nil at the self index
	listeners  []net.Listener
	quit       chan struct{} // closed by Close; writers drain and flush
	closeOnce  sync.Once
	wg         sync.WaitGroup
	writerWg   sync.WaitGroup
}

func (t *tcpTransport) Rank() int { return t.rank }
func (t *tcpTransport) Size() int { return t.size }

// fail marks a peer dead: its conn is closed, pending recvs from it
// error out, and future sends to it return immediately.
func (t *tcpTransport) fail(p *tcpPeer, cause error) {
	p.once.Do(func() {
		t.m.markDead(p.rank, &LostError{Rank: p.rank, Op: "conn"})
		close(p.gone)
		p.conn.Close()
		_ = cause // the LostError is the caller-visible signal; the cause stays local
	})
}

func (t *tcpTransport) startPeer(p *tcpPeer) {
	t.peers[p.rank] = p
	// Writer: drains the outbox so Send never blocks on socket writes —
	// Send returns once the frame is queued (or its deadline passes), the
	// same buffered send the in-process mailbox gives.
	t.wg.Add(1)
	t.writerWg.Add(1)
	go func() {
		defer t.wg.Done()
		defer t.writerWg.Done()
		bw := bufio.NewWriterSize(p.conn, 1<<16)
		for {
			select {
			case frame := <-p.out:
				if _, err := bw.Write(frame); err != nil {
					t.fail(p, err)
					return
				}
				// Flush once the queue momentarily drains, batching
				// back-to-back frames into fewer syscalls.
				if len(p.out) == 0 {
					if err := bw.Flush(); err != nil {
						t.fail(p, err)
						return
					}
				}
			case <-p.gone:
				return
			case <-t.quit:
				// Graceful close: a rank's part in its final collective can
				// end on a send its peers have yet to receive, so deliver
				// everything already queued and flush before letting Close
				// tear the connection down.
				for {
					select {
					case frame := <-p.out:
						if _, err := bw.Write(frame); err != nil {
							t.fail(p, err)
							return
						}
					default:
						if err := bw.Flush(); err != nil {
							t.fail(p, err)
						}
						return
					}
				}
			}
		}
	}()
	// Reader: demultiplexes incoming frames into the matcher.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		br := bufio.NewReaderSize(p.conn, 1<<16)
		for {
			tag, data, err := readFrame(br)
			if err != nil {
				t.fail(p, err)
				return
			}
			t.m.deposit(p.rank, tag, data)
		}
	}()
}

func (t *tcpTransport) Send(dst, tag int, data []float64, deadline time.Time) error {
	if dst == t.rank {
		panic("mpi: send to self")
	}
	p := t.peers[dst]
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case p.out <- encodeFrame(tag, data):
		return nil
	case <-p.gone:
		return &LostError{Rank: dst, Tag: tag, Op: "send"}
	case <-timeout:
		return &LostError{Rank: dst, Tag: tag, Op: "send"}
	}
}

func (t *tcpTransport) Recv(src, tag int, deadline time.Time) ([]float64, error) {
	return t.m.recv(src, tag, deadline)
}

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		// Let the writers deliver queued frames before any conn closes —
		// a graceful Close must not turn our own completed sends into a
		// rank loss at the peers.
		close(t.quit)
		t.writerWg.Wait()
		for _, ln := range t.listeners {
			ln.Close()
		}
		for _, p := range t.peers {
			if p != nil {
				t.fail(p, nil)
			}
		}
		t.m.close(fmt.Errorf("mpi: transport closed: %w", &LostError{Rank: t.rank, Op: "conn"}))
		t.wg.Wait()
	})
	return nil
}

// bootstrapDeadline picks the absolute deadline for the bootstrap
// handshake from the context, defaulting to a generous fixed timeout.
func bootstrapDeadline(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return time.Now().Add(tcpDefaultBootstrapTimeout)
}

func writeInts(c net.Conn, vals ...int64) error {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	_, err := c.Write(buf)
	return err
}

func readInts(c net.Conn, n int) ([]int64, error) {
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return nil, err
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return vals, nil
}

func writeString(c net.Conn, s string) error {
	if err := writeInts(c, int64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(c, s)
	return err
}

func readString(c net.Conn) (string, error) {
	n, err := readInts(c, 1)
	if err != nil {
		return "", err
	}
	if n[0] < 0 || n[0] > 1<<16 {
		return "", fmt.Errorf("mpi: bootstrap string of %d bytes", n[0])
	}
	buf := make([]byte, n[0])
	if _, err := io.ReadFull(c, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Rendezvous is rank 0's side of the TCP bootstrap: a listener on the
// well-known address every other rank dials. Create it with ListenTCP
// (so tests can bind ":0" and read the assigned address back) and turn
// it into rank 0's Transport with Accept.
type Rendezvous struct {
	ln   net.Listener
	size int
}

// ListenTCP opens the rendezvous listener for a group of size ranks.
func ListenTCP(addr string, size int) (*Rendezvous, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: non-positive rank count %d", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: rendezvous listen %s: %w", addr, err)
	}
	return &Rendezvous{ln: ln, size: size}, nil
}

// Addr returns the bound rendezvous address (useful after ":0").
func (rz *Rendezvous) Addr() string { return rz.ln.Addr().String() }

// Close abandons the bootstrap (Accept consumes the listener otherwise).
func (rz *Rendezvous) Close() error { return rz.ln.Close() }

// Accept completes rank 0's bootstrap: it collects the other ranks'
// registrations, replies with the address table, accepts one data conn
// from every peer, and returns rank 0's Transport.
func (rz *Rendezvous) Accept(ctx context.Context) (Transport, error) {
	p := rz.size
	dl := bootstrapDeadline(ctx)
	if d, ok := rz.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(dl)
	}
	t := &tcpTransport{
		rank: 0, size: p,
		m:         newMatcher(),
		peers:     make([]*tcpPeer, p),
		listeners: []net.Listener{rz.ln},
		quit:      make(chan struct{}),
	}
	if p == 1 {
		return t, nil
	}
	regConns := make([]net.Conn, p) // per registering rank
	addrs := make([]string, p)
	cleanup := func(err error) (Transport, error) {
		for _, c := range regConns {
			if c != nil {
				c.Close()
			}
		}
		t.Close()
		return nil, err
	}
	registered, data := 0, 0
	for registered < p-1 || data < p-1 {
		conn, err := rz.ln.Accept()
		if err != nil {
			return cleanup(fmt.Errorf("mpi: rendezvous accept: %w", err))
		}
		conn.SetDeadline(dl)
		hdr, err := readInts(conn, 2)
		if err != nil {
			conn.Close()
			return cleanup(fmt.Errorf("mpi: bootstrap preamble: %w", err))
		}
		kind, rank := hdr[0], int(hdr[1])
		if rank <= 0 || rank >= p {
			conn.Close()
			return cleanup(fmt.Errorf("mpi: bootstrap from invalid rank %d (group size %d)", rank, p))
		}
		switch kind {
		case tcpKindRegister:
			port, err := readInts(conn, 1)
			if err != nil {
				conn.Close()
				return cleanup(fmt.Errorf("mpi: bootstrap registration: %w", err))
			}
			host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
			if err != nil {
				conn.Close()
				return cleanup(err)
			}
			if regConns[rank] != nil {
				conn.Close()
				return cleanup(fmt.Errorf("mpi: rank %d registered twice", rank))
			}
			regConns[rank] = conn
			addrs[rank] = net.JoinHostPort(host, fmt.Sprint(port[0]))
			registered++
		case tcpKindData:
			if t.peers[rank] != nil {
				conn.Close()
				return cleanup(fmt.Errorf("mpi: duplicate data conn from rank %d", rank))
			}
			conn.SetDeadline(time.Time{})
			t.startPeer(&tcpPeer{rank: rank, conn: conn, out: make(chan []byte, 1024), gone: make(chan struct{})})
			data++
		default:
			conn.Close()
			return cleanup(fmt.Errorf("mpi: unknown bootstrap preamble %d", kind))
		}
		// Once everyone registered, publish the table; data conns follow.
		if registered == p-1 && addrs[0] == "" {
			addrs[0] = rz.Addr()
			for r := 1; r < p; r++ {
				c := regConns[r]
				ok := true
				for q := 1; q < p && ok; q++ {
					ok = writeString(c, addrs[q]) == nil
				}
				c.Close()
				regConns[r] = nil
				if !ok {
					return cleanup(fmt.Errorf("mpi: sending address table to rank %d failed", r))
				}
			}
		}
	}
	if d, ok := rz.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{})
	}
	return t, nil
}

// DialTCP runs rank r's (r > 0) side of the bootstrap against the
// rendezvous address and returns the rank's Transport. It retries the
// rendezvous dial until the context's deadline so start order does not
// matter.
func DialTCP(ctx context.Context, rendezvous string, rank, size int) (Transport, error) {
	if rank <= 0 || rank >= size {
		return nil, fmt.Errorf("mpi: DialTCP needs 0 < rank < size, got rank %d of %d", rank, size)
	}
	dl := bootstrapDeadline(ctx)
	// Data listener for conns from higher ranks; ":0" on all interfaces,
	// the port is announced during registration and combined with the
	// host rank 0 observes.
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("mpi: data listen: %w", err)
	}
	_, portStr, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	var port int64
	fmt.Sscan(portStr, &port)

	// Register with rank 0 (retrying while it is not up yet) and read the
	// address table back.
	var reg net.Conn
	for {
		d := net.Dialer{Deadline: dl}
		reg, err = d.DialContext(ctx, "tcp", rendezvous)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			ln.Close()
			return nil, fmt.Errorf("mpi: rendezvous dial %s: %w", rendezvous, err)
		case <-time.After(50 * time.Millisecond):
		}
		if !time.Now().Before(dl) {
			ln.Close()
			return nil, fmt.Errorf("mpi: rendezvous dial %s: %w", rendezvous, err)
		}
	}
	reg.SetDeadline(dl)
	if err := writeInts(reg, tcpKindRegister, int64(rank), port); err != nil {
		reg.Close()
		ln.Close()
		return nil, fmt.Errorf("mpi: bootstrap registration: %w", err)
	}
	addrs := make([]string, size)
	addrs[0] = rendezvous
	for q := 1; q < size; q++ {
		if addrs[q], err = readString(reg); err != nil {
			reg.Close()
			ln.Close()
			return nil, fmt.Errorf("mpi: reading address table: %w", err)
		}
	}
	reg.Close()

	t := &tcpTransport{
		rank: rank, size: size,
		m:         newMatcher(),
		peers:     make([]*tcpPeer, size),
		listeners: []net.Listener{ln},
		quit:      make(chan struct{}),
	}
	fail := func(err error) (Transport, error) {
		t.Close()
		return nil, err
	}
	// Dial every lower rank (rank 0 via the rendezvous listener itself).
	for q := 0; q < rank; q++ {
		d := net.Dialer{Deadline: dl}
		conn, err := d.DialContext(ctx, "tcp", addrs[q])
		if err != nil {
			return fail(fmt.Errorf("mpi: dialing rank %d at %s: %w", q, addrs[q], err))
		}
		conn.SetDeadline(dl)
		if err := writeInts(conn, tcpKindData, int64(rank)); err != nil {
			conn.Close()
			return fail(fmt.Errorf("mpi: data hello to rank %d: %w", q, err))
		}
		conn.SetDeadline(time.Time{})
		t.startPeer(&tcpPeer{rank: q, conn: conn, out: make(chan []byte, 1024), gone: make(chan struct{})})
	}
	// Accept one conn from every higher rank.
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(dl)
	}
	for have := 0; have < size-rank-1; have++ {
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("mpi: accepting data conn: %w", err))
		}
		conn.SetDeadline(dl)
		hdr, err := readInts(conn, 2)
		if err != nil || hdr[0] != tcpKindData {
			conn.Close()
			return fail(fmt.Errorf("mpi: bad data hello (kind %v): %v", hdr, err))
		}
		q := int(hdr[1])
		if q <= rank || q >= size || t.peers[q] != nil {
			conn.Close()
			return fail(fmt.Errorf("mpi: unexpected data hello from rank %d", q))
		}
		conn.SetDeadline(time.Time{})
		t.startPeer(&tcpPeer{rank: q, conn: conn, out: make(chan []byte, 1024), gone: make(chan struct{})})
	}
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{})
	}
	return t, nil
}

// ConnectTCP joins a TCP transport group: rank 0 listens on the
// rendezvous address and every other rank dials it. This is the one-call
// entry point the CLI flags (-peers ADDR -rank R) map to.
func ConnectTCP(ctx context.Context, rendezvous string, rank, size int) (Transport, error) {
	if rank == 0 {
		rz, err := ListenTCP(rendezvous, size)
		if err != nil {
			return nil, err
		}
		return rz.Accept(ctx)
	}
	return DialTCP(ctx, rendezvous, rank, size)
}
