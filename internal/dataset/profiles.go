package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"knnpc/internal/profile"
)

// ProfileSpec describes a clustered synthetic profile collection. Users
// are split across Clusters taste communities; each community prefers
// its own slice of the item space, with a small probability of sampling
// globally ("noise"). This gives the KNN iteration real structure to
// discover: same-cluster users are measurably more similar than
// cross-cluster users, so recall and convergence experiments behave as
// they would on real recommender data.
type ProfileSpec struct {
	Users int
	// Items is the size of the item space (movies, terms, ...).
	Items int
	// ItemsPerUser is the mean profile length.
	ItemsPerUser int
	// Clusters is the number of taste communities (≥1).
	Clusters int
	// Noise is the probability an item is drawn globally instead of
	// from the user's community slice; in [0, 1].
	Noise float64
	// MaxWeight is the largest item weight; weights are uniform
	// integers in [1, MaxWeight] (ratings-like). MaxWeight 1 produces
	// set profiles suited to Jaccard-style measures.
	MaxWeight int
	Seed      int64
}

// Generate produces the profile vectors and each user's community
// assignment (useful as ground truth in examples and tests).
func (s ProfileSpec) Generate() ([]profile.Vector, []int, error) {
	if s.Users <= 0 || s.Items <= 0 || s.ItemsPerUser <= 0 {
		return nil, nil, fmt.Errorf("dataset: profile spec needs positive users/items/itemsPerUser, got %+v", s)
	}
	if s.Clusters <= 0 {
		return nil, nil, fmt.Errorf("dataset: profile spec needs ≥1 cluster, got %d", s.Clusters)
	}
	if s.Noise < 0 || s.Noise > 1 {
		return nil, nil, fmt.Errorf("dataset: noise %g outside [0,1]", s.Noise)
	}
	if s.MaxWeight <= 0 {
		return nil, nil, fmt.Errorf("dataset: max weight must be positive, got %d", s.MaxWeight)
	}
	if s.ItemsPerUser > s.Items {
		return nil, nil, fmt.Errorf("dataset: itemsPerUser %d exceeds item space %d", s.ItemsPerUser, s.Items)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	vectors := make([]profile.Vector, s.Users)
	clusters := make([]int, s.Users)
	sliceSize := s.Items / s.Clusters
	if sliceSize == 0 {
		sliceSize = 1
	}
	for u := 0; u < s.Users; u++ {
		c := rng.Intn(s.Clusters)
		clusters[u] = c
		lo := c * sliceSize
		// Profile length jitters ±50% around the mean, min 1.
		length := s.ItemsPerUser/2 + rng.Intn(s.ItemsPerUser+1)
		if length < 1 {
			length = 1
		}
		if length > s.Items {
			length = s.Items
		}
		chosen := make(map[uint32]bool, length)
		for len(chosen) < length {
			var item int
			if rng.Float64() < s.Noise {
				item = rng.Intn(s.Items)
			} else {
				item = lo + rng.Intn(sliceSize)
			}
			chosen[uint32(item)] = true
		}
		// Assign weights in sorted item order: drawing them while
		// ranging over the map would consume the seeded RNG in map
		// iteration order, making the "deterministic" generator differ
		// run to run.
		items := make([]uint32, 0, len(chosen))
		for item := range chosen {
			items = append(items, item)
		}
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		entries := make([]profile.Entry, 0, len(items))
		for _, item := range items {
			entries = append(entries, profile.Entry{
				Item:   item,
				Weight: float32(1 + rng.Intn(s.MaxWeight)),
			})
		}
		v, err := profile.NewVector(entries)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: build profile for user %d: %w", u, err)
		}
		vectors[u] = v
	}
	return vectors, clusters, nil
}

// RatingsProfiles is a convenience wrapper: movie-ratings-like profiles
// (weights 1..5) over a clustered item space.
func RatingsProfiles(users, items, itemsPerUser, clusters int, seed int64) ([]profile.Vector, []int, error) {
	return ProfileSpec{
		Users:        users,
		Items:        items,
		ItemsPerUser: itemsPerUser,
		Clusters:     clusters,
		Noise:        0.1,
		MaxWeight:    5,
		Seed:         seed,
	}.Generate()
}
