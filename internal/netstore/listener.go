package netstore

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// handleFunc answers one request frame, split into its opcode and the
// rest. A nil error sends payload back in a statusOK frame. An error is
// reported to the peer in-band, under the status byte its class maps
// to, and the connection stays up — unless it is a hangUp, which ends
// the connection without a reply. The one streaming verb writes its own
// response frames through send and returns errReplied.
type handleFunc func(op byte, body []byte, send func(frame []byte) error) (payload []byte, err error)

// errReplied is a handler's "the response is already on the wire".
var errReplied = errors.New("netstore: response already sent")

// hangUpError marks a failure the peer cannot be told about in-band: a
// request body too short for its verb or an opcode the node does not
// know means the two ends disagree about the protocol, and a failed
// write means the connection is gone.
type hangUpError struct{ error }

// hangUp wraps err so the listener drops the connection instead of
// answering.
func hangUp(err error) error { return hangUpError{err} }

// frameListener is the serving half shared by every store node (Server,
// Replica): the accept loop, the registry of live connections, the
// per-connection request loop and the response framing. What a node
// does with a request is its handleFunc.
type frameListener struct {
	ln     net.Listener
	handle handleFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool // set by close under mu; late-accepted conns are refused
	wg     sync.WaitGroup
}

// listenFrames binds addr, passing the listener through wrap when it is
// non-nil (the fault-injection seam). Nothing is accepted until serve.
func listenFrames(addr string, wrap func(net.Listener) net.Listener) (*frameListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netstore: listen %s: %w", addr, err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	return &frameListener{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// serve starts answering requests with handle in the background.
func (l *frameListener) serve(handle handleFunc) {
	l.handle = handle
	l.wg.Add(1)
	go l.acceptLoop()
}

// Addr reports the listener's address (host:port).
func (l *frameListener) Addr() string { return l.ln.Addr().String() }

// close stops the listener, tears down live connections, and waits for
// every handler to return.
func (l *frameListener) close() error {
	err := l.ln.Close()
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *frameListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Register under mu while re-checking the teardown flag: a
		// connection accepted concurrently with close must not escape the
		// teardown loop, or close would block in wg.Wait until the peer
		// voluntarily hangs up.
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			continue
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn handles one client connection request-by-request. A torn
// frame, a hangUp, or a write failure ends the connection; a
// request-level failure (unknown partition, stale token) is answered
// in-band and the connection stays up.
func (l *frameListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	send := func(frame []byte) error { return writeFrame(conn, frame) }
	for {
		req, err := readFrame(conn)
		if err != nil {
			return // disconnect or torn frame: drop the peer, keep serving others
		}
		op, body, err := cutByte(req)
		if err != nil {
			return
		}
		payload, err := l.handle(op, body, send)
		switch {
		case err == nil:
			err = send(append([]byte{statusOK}, payload...))
		case err == errReplied:
			continue
		case errors.As(err, &hangUpError{}):
			return
		default:
			err = send(append([]byte{errorStatus(err)}, err.Error()...))
		}
		if err != nil {
			return
		}
	}
}

// errorStatus picks the status byte an in-band failure travels under.
// Fencing rejections and lookup misses have their own so clients can
// rebuild ErrStaleLease / ErrNotServed without parsing prose — the
// signal is protocol, not message text. Transient faults (the
// injected-device class) fire BEFORE any state mutates, so the client
// may always retry — statusRetry is that promise on the wire.
func errorStatus(err error) byte {
	switch {
	case errors.Is(err, ErrStaleLease):
		return statusStale
	case errors.Is(err, ErrNotServed):
		return statusMiss
	case errors.Is(err, ErrRetryable):
		return statusRetry
	}
	return statusErr
}
