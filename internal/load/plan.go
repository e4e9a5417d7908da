// Package load is the serving tier's traffic side: a Zipfian workload
// driver that replays skewed point reads and profile-update writes
// against a live serving stack — cmd/knnserve over HTTP, or the
// netstore client directly — while recording per-op-type throughput
// and latency percentiles over time-bucketed windows.
//
// The driver is split the same way a reproducible benchmark must be:
//
//   - BuildPlan turns a PlanConfig (population, Zipf skew s, read/
//     write mix, open-loop arrival rate, bursts, seed) into a fully
//     deterministic op sequence — same config, bit-identical plan, so
//     two targets or two code versions see byte-for-byte the same
//     traffic.
//   - Run replays a plan against a Target open-loop: ops dispatch at
//     their scheduled times whether or not earlier ops have finished,
//     and latency is measured from the scheduled start, so a saturated
//     server shows queueing delay instead of silently throttling the
//     driver (the coordinated-omission trap).
//   - Result renders a human table per target and a cross-target
//     comparison.
package load

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Kind is an op type in a workload plan.
type Kind uint8

// The op types a plan draws from.
const (
	// Neighbors is a GET /v1/neighbors/{id} point read.
	Neighbors Kind = iota
	// Profile is a GET /v1/profile/{id} point read.
	Profile
	// Update is a POST /v1/profile single-update write that drains
	// into the engine's phase 5.
	Update
	// AddUser is a PUT /v1/profile/{id} whole-user add that drains
	// into the engine's delta pass. New ids are sequential from Users.
	AddUser
	// DelUser is a DELETE /v1/profile/{id} tombstone, also drained by
	// the delta pass. Previously added users are deleted first.
	DelUser
	// NumKinds is the number of op types (for per-kind arrays).
	NumKinds
)

// String names the kind the way tables and bench lines print it.
func (k Kind) String() string {
	switch k {
	case Neighbors:
		return "neighbors"
	case Profile:
		return "profile"
	case Update:
		return "update"
	case AddUser:
		return "adduser"
	case DelUser:
		return "deluser"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one scheduled operation of a plan.
type Op struct {
	// At is the op's scheduled dispatch time, as an offset from the
	// run's start. Open-loop: dispatch happens at At regardless of
	// whether earlier ops completed.
	At time.Duration
	// Kind selects the op type.
	Kind Kind
	// User is the target user id (Zipf-distributed popularity).
	User uint32
	// Item and Weight are the written entry for Update ops; zero
	// otherwise.
	Item uint32
	// Weight is the written entry's weight for Update ops.
	Weight float32
}

// PlanConfig describes a workload; BuildPlan expands it into ops.
type PlanConfig struct {
	// Users is the simulated user population; op targets are drawn
	// from [0, Users).
	Users int
	// Items is the item-space size writes draw from.
	Items int
	// Ops is the total operation count.
	Ops int
	// Rate is the open-loop arrival rate in ops/second.
	Rate float64
	// Skew is the Zipf exponent s (must be > 1; larger = more skew —
	// s≈1.1 is a typical web-traffic shape). Popularity rank is
	// decoupled from user id by a seeded permutation, so the hot set
	// is scattered across partitions the way real hot users are.
	Skew float64
	// WriteFrac is the fraction of ops that are profile-update
	// writes, in [0, 1).
	WriteFrac float64
	// AddFrac is the fraction of ops that add a whole new user
	// (PUT /v1/profile/{id}); new ids are handed out sequentially from
	// Users, matching the engine's sequential-id delta contract.
	AddFrac float64
	// DelFrac is the fraction of ops that tombstone a user
	// (DELETE /v1/profile/{id}). Deletes target users the plan added
	// earlier, oldest first, so the base population the views were
	// built from stays intact; a delete drawn before any add falls
	// back to a Zipf-drawn base user.
	DelFrac float64
	// ProfileFrac is the fraction of reads that hit /v1/profile
	// instead of /v1/neighbors, in [0, 1].
	ProfileFrac float64
	// Burst, when > 1, multiplies the arrival rate during burst
	// windows: the first BurstLen of every BurstEvery period runs at
	// Rate×Burst, the rest at Rate.
	Burst float64
	// BurstEvery is the burst period (0 disables bursts).
	BurstEvery time.Duration
	// BurstLen is the burst duration at the start of each period.
	BurstLen time.Duration
	// Seed fixes the RNG; equal configs build bit-identical plans.
	Seed int64
}

// validate rejects configs that would build a degenerate plan.
func (c PlanConfig) validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("load: users must be positive, got %d", c.Users)
	case c.Items <= 0:
		return fmt.Errorf("load: items must be positive, got %d", c.Items)
	case c.Ops <= 0:
		return fmt.Errorf("load: ops must be positive, got %d", c.Ops)
	case c.Rate <= 0:
		return fmt.Errorf("load: rate must be positive, got %g", c.Rate)
	case c.Skew <= 1:
		return fmt.Errorf("load: zipf skew must be > 1, got %g", c.Skew)
	case c.WriteFrac < 0 || c.WriteFrac >= 1:
		return fmt.Errorf("load: writefrac must be in [0,1), got %g", c.WriteFrac)
	case c.AddFrac < 0 || c.DelFrac < 0:
		return fmt.Errorf("load: addfrac/delfrac must be ≥ 0, got %g/%g", c.AddFrac, c.DelFrac)
	case c.WriteFrac+c.AddFrac+c.DelFrac >= 1:
		return fmt.Errorf("load: writefrac+addfrac+delfrac must be < 1, got %g", c.WriteFrac+c.AddFrac+c.DelFrac)
	case c.ProfileFrac < 0 || c.ProfileFrac > 1:
		return fmt.Errorf("load: profilefrac must be in [0,1], got %g", c.ProfileFrac)
	case c.Burst > 1 && (c.BurstEvery <= 0 || c.BurstLen <= 0 || c.BurstLen > c.BurstEvery):
		return fmt.Errorf("load: burst %gx needs 0 < burstlen ≤ burstevery", c.Burst)
	}
	return nil
}

// BuildPlan expands the config into its deterministic op sequence.
// Every random draw comes from one seeded source consumed in a fixed
// order, so the sequence is a pure function of the config — the
// property the deterministic-workload test pins.
func BuildPlan(cfg PlanConfig) ([]Op, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := newPlanRNG(cfg.Seed)
	zipf := rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Users-1))
	// Rank→user permutation: rank 0 (the hottest user) should not
	// always be user 0, or the hot set would pile into partition 0's
	// shard by construction.
	perm := rng.Perm(cfg.Users)

	ops := make([]Op, cfg.Ops)
	now := 0.0 // seconds
	// Mutation bookkeeping: adds hand out sequential ids from Users,
	// deletes consume them oldest-first. The bands below collapse to
	// the historical layout when AddFrac and DelFrac are zero, so draw
	// sequences — and therefore whole plans — stay bit-identical for
	// configs that predate user mutations.
	writes := cfg.WriteFrac + cfg.AddFrac + cfg.DelFrac
	addNext, delNext := uint32(cfg.Users), uint32(cfg.Users)
	for i := range ops {
		op := &ops[i]
		op.At = time.Duration(now * float64(time.Second))
		now += 1 / cfg.rateAt(now)

		op.User = uint32(perm[zipf.Uint64()])
		mix := rng.Float64()
		switch {
		case mix < cfg.WriteFrac:
			op.Kind = Update
			op.Item = uint32(rng.Intn(cfg.Items))
			op.Weight = 1 + 4*rng.Float32()
		case mix < cfg.WriteFrac+cfg.AddFrac:
			op.Kind = AddUser
			op.User = addNext
			addNext++
			op.Item = uint32(rng.Intn(cfg.Items))
			op.Weight = 1 + 4*rng.Float32()
		case mix < writes:
			op.Kind = DelUser
			if delNext < addNext {
				op.User = delNext
				delNext++
			}
		case mix < writes+(1-writes)*cfg.ProfileFrac:
			op.Kind = Profile
		default:
			op.Kind = Neighbors
		}
	}
	return ops, nil
}

// newPlanRNG is the single seeded source BuildPlan draws from. Tests
// use it to reproduce the rank→user permutation (the first draw).
func newPlanRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// rateAt is the instantaneous arrival rate at second t, accounting for
// burst windows.
func (c PlanConfig) rateAt(t float64) float64 {
	if c.Burst > 1 && c.BurstEvery > 0 {
		period := c.BurstEvery.Seconds()
		if math.Mod(t, period) < c.BurstLen.Seconds() {
			return c.Rate * c.Burst
		}
	}
	return c.Rate
}
