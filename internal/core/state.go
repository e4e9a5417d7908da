package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"knnpc/internal/knn"
	"knnpc/internal/partition"
	"knnpc/internal/profile"
)

// partState is the loadable unit of phase 4: one partition's members,
// their profiles, and their partial top-K accumulators. It is exactly
// what the paper keeps in each of the two memory slots — everything else
// stays on disk (or, in the in-memory store, serialized out of reach).
//
// The layout is flat. members is ascending, so a member's ordinal — its
// index here, which is also partition.Assignment.Ordinal of its id —
// addresses its profile in the arena and its accumulator in accs; no
// per-member object or map stands between a tuple and its data.
type partState struct {
	id       uint32
	members  []uint32
	profiles profile.Arena // profiles.At(i) belongs to members[i]
	accs     []knn.TopK    // accs[i] belongs to members[i]; one backing array
}

// lookup returns member u's profile given its ordinal, re-checking that
// the ordinal really names u in this state.
func (st *partState) lookup(u uint32, ord int) (profile.Vector, error) {
	if ord >= len(st.members) || st.members[ord] != u {
		return profile.Vector{}, fmt.Errorf("core: user %d not in partition %d", u, st.id)
	}
	return st.profiles.At(ord), nil
}

// byteSize reports the encoded size, used for budget accounting.
func (st *partState) byteSize() int {
	n := 8 // id + member count
	for i := range st.members {
		n += 4 + st.profiles.At(i).ByteSize() + st.accs[i].ByteSize()
	}
	return n
}

// encode serializes the state: id, member count, then per member the
// id, profile vector and accumulator.
func (st *partState) encode() []byte {
	return st.appendTo(make([]byte, 0, st.byteSize()))
}

// appendTo appends the encoding to buf, so a store can encode every
// state it writes into one reused buffer.
func (st *partState) appendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, st.id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.members)))
	for i, u := range st.members {
		buf = binary.LittleEndian.AppendUint32(buf, u)
		buf = st.profiles.At(i).AppendBinary(buf)
		buf = st.accs[i].AppendBinary(buf)
	}
	return buf
}

// minMemberBytes is the least a member occupies in an encoded state:
// its id, an empty vector's count, and an empty accumulator's header.
const minMemberBytes = 4 + 4 + 8

// decodePartState decodes a state whose accumulators have capacity k —
// the engine's K; a blob written under another K is not this engine's.
// The bytes may come off a disk or a wire, so nothing is sized from a
// count before the bytes are known to be there to back it: storage is
// allocated once, after a pass over the framing, and is bounded by
// k+1 times len(buf).
func decodePartState(buf []byte, k int) (*partState, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("core: short partition state header (%d bytes)", len(buf))
	}
	id := binary.LittleEndian.Uint32(buf)
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	body := buf[8:]
	if n > len(body)/minMemberBytes {
		return nil, fmt.Errorf("core: partition %d state claims %d members in %d bytes", id, n, len(body))
	}
	entries, rest := 0, body
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("core: partition %d state truncated at member %d", id, i)
		}
		cnt, after, err := profile.SkipVector(rest[4:])
		if err != nil {
			return nil, fmt.Errorf("core: partition %d member #%d profile: %w", id, i, err)
		}
		if _, _, after, err = knn.SkipTopK(after); err != nil {
			return nil, fmt.Errorf("core: partition %d member #%d accumulator: %w", id, i, err)
		}
		entries += cnt
		rest = after
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: partition %d state has %d trailing bytes", id, len(rest))
	}

	st := &partState{id: id, members: make([]uint32, n)}
	st.profiles.Grow(n, entries)
	var err error
	if st.accs, err = knn.NewTopKs(n, k); err != nil {
		return nil, err
	}
	rest = body
	for i := range st.members {
		u := binary.LittleEndian.Uint32(rest)
		if i > 0 && u <= st.members[i-1] {
			return nil, fmt.Errorf("core: partition %d member ids not strictly increasing at member #%d (%d)", id, i, u)
		}
		st.members[i] = u
		if rest, err = st.profiles.Decode(rest[4:]); err != nil {
			return nil, fmt.Errorf("core: partition %d member %d profile: %w", id, u, err)
		}
		if rest, err = st.accs[i].Decode(rest); err != nil {
			return nil, fmt.Errorf("core: partition %d member %d accumulator: %w", id, u, err)
		}
	}
	return st, nil
}

// encodePartial serializes the worker-private accumulator deltas of a
// netstore residency cycle: member count, then per member holding at
// least one candidate the id and its TopK. Profiles are omitted — the
// base state the store already holds is immutable during phase 4, so a
// partial carries only what this worker added.
func (st *partState) encodePartial() []byte {
	n := 0
	for i := range st.accs {
		if st.accs[i].Len() > 0 {
			n++
		}
	}
	buf := make([]byte, 0, 4+n*16)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i, u := range st.members {
		if st.accs[i].Len() == 0 {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, u)
		buf = st.accs[i].AppendBinary(buf)
	}
	return buf
}

// minPartialBytes is the least one member occupies in an encoded
// partial: its id and an accumulator header.
const minPartialBytes = 4 + 8

// mergePartial folds one encoded partial into the receiver's
// accumulators via knn.TopK.Merge. Merging is commutative — each
// user's final TopK is the K best of the union of all pushed
// candidates, whatever order the partials arrive in — which is what
// makes the collected graph bit-identical to in-process execution at
// every (Slots, Workers, shards) combination. A partial is wire bytes:
// its member ids must ascend (so none is merged twice), name members
// of this state, and carry accumulators of this state's K.
func (st *partState) mergePartial(buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("core: short partial header for partition %d (%d bytes)", st.id, len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n > len(buf)/minPartialBytes {
		return fmt.Errorf("core: partition %d partial claims %d members in %d bytes", st.id, n, len(buf))
	}
	var (
		incoming *knn.TopK // decode scratch, reused across members
		prev     uint32
	)
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return fmt.Errorf("core: partition %d partial truncated at member %d", st.id, i)
		}
		u := binary.LittleEndian.Uint32(buf)
		if i > 0 && u <= prev {
			return fmt.Errorf("core: partition %d partial member ids not strictly increasing at member #%d (%d)", st.id, i, u)
		}
		prev = u
		ord, ok := slices.BinarySearch(st.members, u) // no assignment at hand here
		if !ok {
			return fmt.Errorf("core: partition %d partial names unknown member %d", st.id, u)
		}
		if incoming == nil {
			tk, err := knn.NewTopK(st.accs[ord].K())
			if err != nil {
				return err
			}
			incoming = tk
		}
		rest, err := incoming.Decode(buf[4:])
		if err != nil {
			return fmt.Errorf("core: partition %d partial member %d: %w", st.id, u, err)
		}
		buf = rest
		st.accs[ord].Merge(incoming)
	}
	if len(buf) != 0 {
		return fmt.Errorf("core: partition %d partial has %d trailing bytes", st.id, len(buf))
	}
	return nil
}

// newPartState builds the fresh phase-1 state of one partition: member
// profiles snapshotted from the canonical store, empty accumulators.
func newPartState(p *partition.Data, profiles canonicalProfiles, k int) (*partState, error) {
	st := &partState{id: p.ID, members: append([]uint32(nil), p.Members...)}
	var err error
	if st.accs, err = knn.NewTopKs(len(st.members), k); err != nil {
		return nil, err
	}
	vecs := make([]profile.Vector, len(st.members))
	entries := 0
	for i, u := range st.members {
		if vecs[i], err = profiles.Profile(u); err != nil {
			return nil, err
		}
		entries += vecs[i].Len()
	}
	st.profiles.Grow(len(vecs), entries)
	for _, v := range vecs {
		st.profiles.Append(v)
	}
	return st, nil
}
