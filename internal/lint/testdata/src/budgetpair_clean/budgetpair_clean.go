// Package budgetpair_clean holds the repaired twins: release before
// every return, defer the release, or transfer ownership outright.
// The analyzer must report nothing here.
package budgetpair_clean

import (
	"errors"

	"knnpc/internal/disk"
	"knnpc/internal/netstore"
)

// spillReleasesEverywhere pays the reservation back on each path.
func spillReleasesEverywhere(b *disk.Budget, payload []byte) error {
	n := int64(len(payload))
	if err := b.Reserve(n); err != nil {
		return err
	}
	if len(payload) > 1<<20 {
		b.Release(n)
		return errors.New("payload too large")
	}
	b.Release(n)
	return nil
}

// spillDeferred covers all paths with one deferred release.
func spillDeferred(b *disk.Budget, payload []byte) error {
	n := int64(len(payload))
	if err := b.Reserve(n); err != nil {
		return err
	}
	defer b.Release(n)
	if len(payload) > 1<<20 {
		return errors.New("payload too large")
	}
	return nil
}

// acquireTransfers stages a lease and hands the token to the caller —
// acquire-only functions transfer ownership and are not flagged.
func acquireTransfers(c *netstore.Client, p uint32) (uint64, error) {
	return c.Lease(p)
}

// releaseOnly is the other half of the transfer.
func releaseOnly(c *netstore.Client, p uint32, token uint64) error {
	return c.Release(p, token)
}

// leaseReleasedBeforeBranch releases in the block enclosing the later
// returns, so each of them runs it.
func leaseReleasedBeforeBranch(c *netstore.Client, p uint32) error {
	token, err := c.Lease(p)
	if err != nil {
		return err
	}
	if err := c.Release(p, token); err != nil {
		return err
	}
	if p == 0 {
		return errors.New("partition 0")
	}
	return nil
}

// holder keeps leases for a later release.
type holder struct{ tokens map[uint32]uint64 }

// leaseAndHold releases on its failed fetch and hands the token off on
// success: stored in the holder, the lease is no longer this function's
// to release, as in an acquire-only function.
func (h *holder) leaseAndHold(c *netstore.Client, p uint32) ([]byte, error) {
	token, err := c.Lease(p)
	if err != nil {
		return nil, err
	}
	blob, err := c.Get(p)
	if err != nil {
		_ = c.Release(p, token)
		return nil, err
	}
	h.tokens[p] = token
	return blob, nil
}

// leaseReturned releases on its failed fetch and returns the token to
// the caller otherwise.
func leaseReturned(c *netstore.Client, p uint32) (uint64, error) {
	token, err := c.Lease(p)
	if err != nil {
		return 0, err
	}
	if _, err := c.Get(p); err != nil {
		_ = c.Release(p, token)
		return 0, err
	}
	return token, nil
}

// filed is one lease a filer keeps.
type filed struct {
	token uint64
	blob  []byte
}

// filer keeps leases in records for a later release.
type filer struct{ held map[uint32]*filed }

// leaseAndFile hands the token off inside a composite literal, the
// shape of a lease table's record.
func (f *filer) leaseAndFile(c *netstore.Client, p uint32) error {
	token, err := c.Lease(p)
	if err != nil {
		return err
	}
	blob, err := c.Get(p)
	if err != nil {
		_ = c.Release(p, token)
		return err
	}
	f.held[p] = &filed{token: token, blob: blob}
	return nil
}

var use = []any{spillReleasesEverywhere, spillDeferred, acquireTransfers, releaseOnly,
	leaseReleasedBeforeBranch, (*holder).leaseAndHold, leaseReturned, (*filer).leaseAndFile}
