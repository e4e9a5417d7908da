package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"knnpc/internal/disk"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
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

// stateStore moves partition states between memory and storage. Both
// implementations serialize on unload and deserialize on load, so the
// in-memory store exercises the same code paths as the disk store; the
// disk store additionally pays real file I/O, counted in IOStats.
//
// Concurrency contract: pipelined phase 4 calls Load from prefetch
// goroutines and Unload from write-back goroutines, concurrently with
// each other and with Put on the cursor — but never two operations on
// the same partition id at the same time (the executor orders each
// load after the write-back that precedes it on the op tape, and a
// partition is reloaded before it can be unloaded again). Collect and
// Cleanup run only after every in-flight operation has drained.
type stateStore interface {
	// Put persists a freshly built state (phase 1).
	Put(st *partState) error
	// Load materializes partition p into memory (phase 4).
	Load(p uint32) (*partState, error)
	// Unload persists a resident state back (phase 4).
	Unload(st *partState) error
	// Collect streams every partition's final state in id order.
	Collect(emit func(st *partState) error) error
	// Cleanup removes all stored state.
	Cleanup() error
}

// memStateStore keeps encoded blobs in a map. Used for differential
// testing and for callers who want the five-phase structure without
// real disk traffic. The mutex makes the map safe for the pipelined
// executor's concurrent Load-while-Put (the disk store gets the same
// safety from operating on distinct per-partition files).
type memStateStore struct {
	k     int // accumulator capacity of every stored state
	mu    sync.Mutex
	blobs map[uint32][]byte
}

func newMemStateStore(k int) *memStateStore {
	return &memStateStore{k: k, blobs: make(map[uint32][]byte)}
}

// Put encodes over the partition's previous blob: no other operation
// on the same partition runs concurrently (see stateStore), and a state
// barely changes size between residencies, so rewriting in place makes
// an unload allocation-free.
func (s *memStateStore) Put(st *partState) error {
	s.mu.Lock()
	old := s.blobs[st.id]
	s.mu.Unlock()
	blob := st.appendTo(old[:0])
	s.mu.Lock()
	s.blobs[st.id] = blob
	s.mu.Unlock()
	return nil
}

func (s *memStateStore) Load(p uint32) (*partState, error) {
	s.mu.Lock()
	blob, ok := s.blobs[p]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: partition %d has no stored state", p)
	}
	return decodePartState(blob, s.k)
}

func (s *memStateStore) Unload(st *partState) error { return s.Put(st) }

func (s *memStateStore) Collect(emit func(st *partState) error) error {
	ids := make([]uint32, 0, len(s.blobs))
	for id := range s.blobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st, err := s.Load(id)
		if err != nil {
			return err
		}
		if err := emit(st); err != nil {
			return err
		}
	}
	return nil
}

func (s *memStateStore) Cleanup() error {
	s.mu.Lock()
	s.blobs = make(map[uint32][]byte)
	s.mu.Unlock()
	return nil
}

// diskStateStore keeps one state file per partition under the scratch
// directory, with all traffic counted in IOStats. A non-nil device
// additionally sleeps the modeled time of each access on the engine's
// shared emulated spindle, so phase 4 experiences the latency of the
// paper's hardware class even when the host's page cache absorbs the
// real I/O. Load and Unload are safe for concurrent use with Put/Load
// of other partitions: distinct partitions live in distinct files, the
// stats counters are atomic, and the device serializes internally.
type diskStateStore struct {
	scratch *disk.Scratch
	stats   *disk.IOStats
	device  *disk.Device // nil = no emulated latency
	k       int          // accumulator capacity of every stored state
	// blobs recycles the buffers states are encoded into and read into:
	// a blob is dead once written or decoded (decoding copies into the
	// state's own arrays), so each concurrent Load or Unload borrows
	// one instead of allocating a partition's worth of bytes.
	blobs sync.Pool // *[]byte
	// mu guards known: Put/Unload run on the cursor, but the async
	// write-back goroutines call Unload concurrently with it.
	mu    sync.Mutex
	known map[uint32]bool
}

func newDiskStateStore(scratch *disk.Scratch, stats *disk.IOStats, device *disk.Device, k int) *diskStateStore {
	return &diskStateStore{scratch: scratch, stats: stats, device: device, k: k, known: make(map[uint32]bool)}
}

func (s *diskStateStore) path(p uint32) string {
	return s.scratch.Path(fmt.Sprintf("state-%d.bin", p))
}

// borrow returns a blob buffer from the pool; the caller stores the
// (possibly regrown) slice back through it before returning it.
func (s *diskStateStore) borrow() *[]byte {
	if b, ok := s.blobs.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

func (s *diskStateStore) Put(st *partState) error {
	s.mu.Lock()
	s.known[st.id] = true
	s.mu.Unlock()
	buf := s.borrow()
	defer s.blobs.Put(buf)
	*buf = st.appendTo((*buf)[:0])
	if err := disk.WriteFile(s.stats, s.path(st.id), *buf); err != nil {
		return err
	}
	s.device.Write(int64(len(*buf)))
	return nil
}

func (s *diskStateStore) Load(p uint32) (*partState, error) {
	buf := s.borrow()
	defer s.blobs.Put(buf)
	blob, err := disk.ReadFile(s.stats, s.path(p), *buf)
	if err != nil {
		return nil, err
	}
	*buf = blob
	s.device.Read(int64(len(blob)))
	return decodePartState(blob, s.k)
}

func (s *diskStateStore) Unload(st *partState) error { return s.Put(st) }

func (s *diskStateStore) Collect(emit func(st *partState) error) error {
	s.mu.Lock()
	ids := make([]uint32, 0, len(s.known))
	for id := range s.known {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	slices.Sort(ids)
	for _, id := range ids {
		st, err := s.Load(id)
		if err != nil {
			return err
		}
		if err := emit(st); err != nil {
			return err
		}
	}
	return nil
}

func (s *diskStateStore) Cleanup() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for id := range s.known {
		if err := disk.Remove(s.path(id)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.known = make(map[uint32]bool)
	return firstErr
}

// netStateStore adapts the sharded network KV to the stateStore
// interface for the phases around the tape: phase 1 PUTs base blobs,
// Collect streams every shard's base state merged with the workers'
// accumulated partials, Cleanup clears the cluster. The phase-4 write
// path does NOT go through this adapter — write-backs must carry a
// lease's fencing token, which is netOwner's job — so Unload refuses
// loudly instead of offering an unfenced write.
type netStateStore struct {
	client *netstore.Client
	stats  *disk.IOStats
	k      int // accumulator capacity of every stored state
}

func newNetStateStore(client *netstore.Client, stats *disk.IOStats, k int) *netStateStore {
	return &netStateStore{client: client, stats: stats, k: k}
}

func (s *netStateStore) Put(st *partState) error {
	blob := st.encode()
	if err := s.client.PutBase(st.id, blob); err != nil {
		return err
	}
	s.stats.AddWrite(int64(len(blob)))
	return nil
}

func (s *netStateStore) Load(p uint32) (*partState, error) {
	blob, err := s.client.Get(p)
	if err != nil {
		return nil, err
	}
	s.stats.AddRead(int64(len(blob)))
	return decodePartState(blob, s.k)
}

func (s *netStateStore) Unload(*partState) error {
	return fmt.Errorf("core: netstore write-backs must carry a lease token (use the lease owner, not the state store)")
}

func (s *netStateStore) Collect(emit func(st *partState) error) error {
	return s.client.Collect(func(it netstore.CollectItem) error {
		st, err := decodePartState(it.Base, s.k)
		if err != nil {
			return err
		}
		volume := int64(len(it.Base))
		for _, partial := range it.Partials {
			if err := st.mergePartial(partial); err != nil {
				return err
			}
			volume += int64(len(partial))
		}
		s.stats.AddRead(volume)
		return emit(st)
	})
}

func (s *netStateStore) Cleanup() error { return s.client.Clear() }
