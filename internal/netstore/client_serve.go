package netstore

import (
	"errors"
	"fmt"
	"sync"

	"knnpc/internal/api"
	"knnpc/internal/profile"
)

// The client's serving-side verbs. They share the compute client's
// shard connections but never touch leases: reads answer from the
// committed serve views (stale by design, bounded by one epoch), and
// update pushes feed the engine's phase-5 queue.
//
// Point lookups are keyed by user, and the user→partition assignment is
// an engine-side artifact that changes every iteration — no client can
// compute it. The client therefore remembers which shard answered for
// each user (a hint cache) and falls back to asking every shard in
// order on a miss; servers answer statusMiss cheaply from their
// in-memory user index, so the scatter costs network hops, not disk.

// hintCache remembers which shard last answered for a user.
type hintCache struct {
	mu    sync.Mutex
	shard map[uint32]int
}

func (h *hintCache) get(u uint32) (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.shard[u]
	return s, ok
}

func (h *hintCache) put(u uint32, s int) {
	h.mu.Lock()
	if h.shard == nil {
		h.shard = make(map[uint32]int)
	}
	h.shard[u] = s
	h.mu.Unlock()
}

// Epoch reports partition p's epoch counter and the epoch stamp of its
// current serve view (0 when none is published). The base epoch moves
// the moment phase 1 of a new iteration rewrites the partition; the
// view epoch only moves when that iteration commits.
func (c *Client) Epoch(p uint32) (base, view uint64, err error) {
	body, err := c.roundTripFor(p, appendU32([]byte{opEpoch}, p))
	if err != nil {
		return 0, 0, err
	}
	return decodeEpoch(body)
}

// PutView publishes partition p's committed serve view (an EncodeView
// blob). The shard stamps it with the partition's current epoch.
func (c *Client) PutView(p uint32, blob []byte) error {
	_, err := c.roundTripFor(p, putRequest(p, putView, 0, blob))
	return err
}

// GetView fetches partition p's whole serve view blob and the epoch it
// was stamped with, for inspecting a published view; point lookups
// should use Neighbors/ProfileBytes instead.
func (c *Client) GetView(p uint32) (epoch uint64, blob []byte, err error) {
	body, err := c.roundTripFor(p, appendU32([]byte{opGetView}, p))
	if err != nil {
		return 0, nil, err
	}
	return decodeStamped(body)
}

// lookupOn issues one point-lookup op against one shard.
func (c *Client) lookupOn(s int, op byte, u uint32) ([]byte, error) {
	return c.shards[s].roundTrip(appendU32([]byte{op}, u))
}

// lookup routes a point lookup: hinted shard first, then every shard in
// order. Only ErrNotServed keeps the scatter going — a transport or
// protocol failure is reported immediately.
func (c *Client) lookup(op byte, u uint32) ([]byte, error) {
	if s, ok := c.hints.get(u); ok {
		body, err := c.lookupOn(s, op, u)
		if err == nil {
			return body, nil
		}
		if !errors.Is(err, ErrNotServed) {
			return nil, err
		}
		// The user moved shards between epochs; fall through to scatter.
	}
	for s := range c.shards {
		body, err := c.lookupOn(s, op, u)
		if err == nil {
			c.hints.put(u, s)
			return body, nil
		}
		if !errors.Is(err, ErrNotServed) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: user %d on any of %d shards", ErrNotServed, u, len(c.shards))
}

// Neighbors answers a point lookup for user u's committed KNN list and
// the epoch of the view it came from. No lease is taken — the read is
// served from the shard's immutable serve view, so it can run while
// phase 4 holds the partition's compute state.
func (c *Client) Neighbors(u uint32) (epoch uint64, ids []uint32, err error) {
	body, err := c.lookup(opNeighbors, u)
	if err != nil {
		return 0, nil, err
	}
	return decodeNeighbors(body)
}

// ProfileBytes answers a point lookup for user u's committed profile
// vector (its binary encoding) and the epoch of the view it came from.
func (c *Client) ProfileBytes(u uint32) (epoch uint64, blob []byte, err error) {
	body, err := c.lookup(opProfile, u)
	if err != nil {
		return 0, nil, err
	}
	return decodeStamped(body)
}

// PushUpdates enqueues profile updates for the engine's next phase 5.
// Each update goes to its user's shard (userShard), so two pushes for
// the same user land on the same shard queue and drain in push order.
func (c *Client) PushUpdates(updates []profile.Update) error {
	if len(updates) == 0 {
		return nil
	}
	byShard := make([][]profile.Update, len(c.shards))
	for _, upd := range updates {
		s := userShard(upd.User, len(c.shards))
		byShard[s] = append(byShard[s], upd)
	}
	for s, batch := range byShard {
		if len(batch) == 0 {
			continue
		}
		// roundTripOnce: a replayed push could enqueue the batch twice,
		// and phase 5 applies updates in arrival order — duplicates are
		// real state, not noise.
		req := append([]byte{opPushUpd}, EncodeUpdates(batch)...)
		if _, err := c.shards[s].roundTripOnce(req); err != nil {
			return fmt.Errorf("netstore: push updates to shard %d: %w", s, err)
		}
	}
	return nil
}

// AddUser broadcasts a user add to every shard: each shard clears its
// tombstone for u (a re-add resurrects the id), and u's owning shard
// (u mod N) journals the profile for the engine's next delta pass. The
// profile blob is the opaque profile.Vector encoding.
func (c *Client) AddUser(u uint32, profileBlob []byte) error {
	req := appendU32([]byte{opAddUser}, u)
	req = append(req, profileBlob...)
	for s, sc := range c.shards {
		// roundTripOnce: a replay would journal the mutation twice on
		// the owning shard.
		if _, err := sc.roundTripOnce(req); err != nil {
			return fmt.Errorf("netstore: add user %d on shard %d: %w", u, s, err)
		}
	}
	return nil
}

// DelUser broadcasts a tombstone for user u to every shard — point
// lookups miss immediately on the primaries — and u's owning shard
// journals the removal for the engine's next delta pass. Replicas keep
// serving the stale view until the delta commit republishes the user's
// partition without it (the usual bounded staleness).
func (c *Client) DelUser(u uint32) error {
	req := appendU32([]byte{opDelUser}, u)
	for s, sc := range c.shards {
		// roundTripOnce: same double-journal hazard as AddUser.
		if _, err := sc.roundTripOnce(req); err != nil {
			return fmt.Errorf("netstore: delete user %d on shard %d: %w", u, s, err)
		}
	}
	return nil
}

// DrainMutations collects and clears every shard's pending mutation
// queue, in shard order then arrival order — per-user order holds
// because a user's mutations all journal on its owning shard. A drain
// clears each shard's journal as it answers, so on error the mutations
// collected so far are returned alongside it — the caller must keep
// them (the engine parks them on its backlog) or they are lost.
func (c *Client) DrainMutations() ([]Mutation, error) {
	return drain(c, opDrainMut, "mutations", DecodeMutations)
}

// drain runs one drain verb on every shard in order and decodes every
// batch the shards answer with, returning what it decoded before any
// error alongside it.
func drain[T any](c *Client, op byte, what string, decode func([]byte) ([]T, error)) ([]T, error) {
	var all []T
	for s, sc := range c.shards {
		// roundTripOnce: a drain clears the queue as it answers, so if
		// the response is lost the data is in flight, not on the shard —
		// a blind replay would return an empty queue and the caller
		// would never learn anything was dropped.
		body, err := sc.roundTripOnce([]byte{op})
		if err != nil {
			return all, fmt.Errorf("netstore: drain %s from shard %d: %w", what, s, err)
		}
		if err := eachDrained(body, func(b []byte) error {
			batch, err := decode(b)
			all = append(all, batch...)
			return err
		}); err != nil {
			return all, err
		}
	}
	return all, nil
}

// PutDeltaView republishes partition p's serve view after a delta
// commit: the shard bumps the partition's epoch and stamps the view
// with the new value and ships it to its replicas, without any phase-1
// base install having happened.
func (c *Client) PutDeltaView(p uint32, blob []byte) error {
	_, err := c.roundTripFor(p, putRequest(p, putDeltaView, 0, blob))
	return err
}

// PutStaleness broadcasts the engine's staleness document (an
// EncodeStaleness blob) to every shard, so any shard can answer a
// STALENESS query. Pure metadata — the PUT rides partition lo of each
// shard's range purely for routing.
func (c *Client) PutStaleness(blob []byte) error {
	for s := range c.shards {
		lo, _ := c.router.Range(s)
		if _, err := c.shards[s].roundTrip(putRequest(uint32(lo), putStale, 0, blob)); err != nil {
			return fmt.Errorf("netstore: put staleness on shard %d: %w", s, err)
		}
	}
	return nil
}

// Staleness fetches the engine's last published staleness document
// from shard 0 (every shard holds the same broadcast copy). The second
// return reports whether any document has been published yet.
func (c *Client) Staleness() (api.StalenessResponse, bool, error) {
	body, err := c.shards[0].roundTrip([]byte{opStaleness})
	if err != nil {
		return api.StalenessResponse{}, false, err
	}
	if len(body) == 0 {
		return api.StalenessResponse{}, false, nil
	}
	doc, err := DecodeStaleness(body)
	if err != nil {
		return api.StalenessResponse{}, false, err
	}
	return doc, true, nil
}

// DrainUpdates collects and clears every shard's pending update queue,
// in shard order then arrival order — which preserves per-user order,
// since a user's pushes all route to the same shard. Like
// DrainMutations, an error comes with the updates collected so far:
// their shards have already cleared them, so the caller must keep them
// (the engine does, and re-issues the drain for the rest).
func (c *Client) DrainUpdates() ([]profile.Update, error) {
	return drain(c, opDrainUpd, "updates", DecodeUpdates)
}
