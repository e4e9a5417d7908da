package netstore

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// handleFunc answers one request, parsed by parseCommand. A nil error
// sends payload back in a statusOK frame. An error is reported to the
// peer in-band, under the status byte its class maps to, and the
// connection stays up — unless it is a hangUp, which ends the
// connection without a reply. The streaming verbs (COLLECT, WATCH)
// write their own response frames to conn and return errReplied or a
// hangUp.
type handleFunc func(c command, conn net.Conn) (payload []byte, err error)

// errReplied is a handler's "the response is already on the wire".
var errReplied = errors.New("netstore: response already sent")

// hangUpError marks a failure the peer cannot be told about in-band: a
// failed write, or a stream the node ends.
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
// frame, a request parseCommand refuses — a body that does not hold
// exactly its verb's fields, or an opcode no verb uses, means the two
// ends disagree about the protocol — a hangUp, or a write failure ends
// the connection; a request-level failure (unknown partition, stale
// token) is answered in-band and the connection stays up.
func (l *frameListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	for {
		req, err := readFrame(conn)
		if err != nil {
			return // disconnect or torn frame: drop the peer, keep serving others
		}
		op, body, err := splitFrame(req)
		if err != nil {
			return
		}
		c, err := parseCommand(op, body, false)
		if err != nil {
			return
		}
		payload, err := l.handle(c, conn)
		switch {
		case err == nil:
			err = writeFrame(conn, append([]byte{statusOK}, payload...))
		case err == errReplied:
			continue
		case errors.As(err, &hangUpError{}):
			return
		default:
			err = writeFrame(conn, append([]byte{errorStatus(err)}, err.Error()...))
		}
		if err != nil {
			return
		}
	}
}
