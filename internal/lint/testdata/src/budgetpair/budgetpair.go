// Package budgetpair seeds the PR 3 leak shape: a function stages a
// budget charge or a partition lease, releases it on the happy path,
// but slips out of an early error return with the stake still held.
package budgetpair

import (
	"errors"
	"fmt"

	"knnpc/internal/disk"
	"knnpc/internal/netstore"
)

// spillLeaky releases on success but leaks the reservation when the
// payload is oversized — the verbatim PR 3 bug shape.
func spillLeaky(b *disk.Budget, payload []byte) error {
	if err := b.Reserve(int64(len(payload))); err != nil {
		return err // failed acquire staged nothing: exempt
	}
	if len(payload) > 1<<20 {
		return errors.New("payload too large") // want `return path leaks the budget reservation`
	}
	b.Release(int64(len(payload)))
	return nil
}

// leaseLeaky drops the lease token on the validation path.
func leaseLeaky(c *netstore.Client, p uint32, ok func(uint64) bool) error {
	token, err := c.Lease(p)
	if err != nil {
		return err // failed acquire: exempt
	}
	if !ok(token) {
		return errors.New("stale lease") // want `return path leaks the partition lease`
	}
	return c.Release(p, token)
}

// leaseSiblingLeak releases on the failed fetch but not on the failed
// check after it: the release that comes earlier in source order sits
// on a sibling error branch this return never runs.
func leaseSiblingLeak(c *netstore.Client, p uint32, ok func([]byte) bool) ([]byte, error) {
	token, err := c.Lease(p)
	if err != nil {
		return nil, err // failed acquire: exempt
	}
	blob, err := c.Get(p)
	if err != nil {
		_ = c.Release(p, token)
		return nil, err
	}
	if !ok(blob) {
		return nil, errors.New("bad blob") // want `return path leaks the partition lease`
	}
	return blob, c.Release(p, token)
}

// spillSiblingLeak is the same shape for a budget reservation: the
// release inside one case clause does not cover the next.
func spillSiblingLeak(b *disk.Budget, payload []byte) error {
	n := int64(len(payload))
	if err := b.Reserve(n); err != nil {
		return err
	}
	switch {
	case n == 0:
		b.Release(n)
		return errors.New("empty payload")
	case n > 1<<20:
		return errors.New("payload too large") // want `return path leaks the budget reservation`
	}
	b.Release(n)
	return nil
}

// spillErrReuse reuses the Reserve's err for a later call. Reserve
// returns only an error, so the err returned on that call's failure
// hands nothing off: the reservation leaks.
func spillErrReuse(b *disk.Budget, n int64, read func() ([]byte, error)) ([]byte, error) {
	err := b.Reserve(n)
	if err != nil {
		return nil, err // failed acquire: exempt
	}
	buf, err := read()
	if err != nil {
		return nil, err // want `return path leaks the budget reservation`
	}
	b.Release(n)
	return buf, nil
}

// leaseTokenInMessage names the token in its error: a mention inside
// another expression is not a hand-off.
func leaseTokenInMessage(c *netstore.Client, p uint32, ok func(uint64) bool) error {
	token, err := c.Lease(p)
	if err != nil {
		return err
	}
	if !ok(token) {
		return fmt.Errorf("stale lease %d", token) // want `return path leaks the partition lease`
	}
	return c.Release(p, token)
}

// logbook keeps notes about leases, not the leases.
type logbook struct{ notes map[uint32]string }

// leaseTokenLogged stores a message naming the token, not the token.
func (l *logbook) leaseTokenLogged(c *netstore.Client, p uint32, ok func(uint64) bool) error {
	token, err := c.Lease(p)
	if err != nil {
		return err
	}
	if !ok(token) {
		l.notes[p] = fmt.Sprint(token)
		return errors.New("stale lease") // want `return path leaks the partition lease`
	}
	return c.Release(p, token)
}

var use = []any{spillLeaky, leaseLeaky, leaseSiblingLeak, spillSiblingLeak,
	spillErrReuse, leaseTokenInMessage, (*logbook).leaseTokenLogged}
