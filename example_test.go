package knnpc_test

import (
	"context"
	"fmt"

	"knnpc"
)

// Example builds a KNN graph over ten users with the public API and
// prints each user's nearest neighbors. Users 0-4 like items 1-10 and
// users 5-9 like items 11-20, so every user's neighbors come from its
// own group.
func Example() {
	profiles := make([][]knnpc.Item, 10)
	for u := 0; u < 10; u++ {
		base := uint32(1)
		if u >= 5 {
			base = 11
		}
		seen := make(map[uint32]bool)
		for i := uint32(0); i < 6; i++ {
			item := base + (uint32(u)+i)%10/2*2 + i%3
			if !seen[item] {
				seen[item] = true
				profiles[u] = append(profiles[u], knnpc.Item{ID: item, Weight: float32(1 + i%5)})
			}
		}
	}

	sys, err := knnpc.New(profiles, knnpc.Config{K: 3, Partitions: 2, Seed: 42})
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	reports, err := sys.Run(context.Background(), 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged after %d iterations\n", len(reports))
	for u := uint32(0); u < 10; u++ {
		fmt.Printf("user %d -> %v\n", u, sys.Neighbors(u))
	}
	// Output:
	// converged after 3 iterations
	// user 0 -> [1 2 3]
	// user 1 -> [0 2 4]
	// user 2 -> [0 1 3]
	// user 3 -> [0 2 4]
	// user 4 -> [1 2 3]
	// user 5 -> [6 7 8]
	// user 6 -> [5 7 9]
	// user 7 -> [5 6 8]
	// user 8 -> [5 7 9]
	// user 9 -> [6 7 8]
}

// ExampleSystem_QueryNeighbors shows the online serving path: the
// query methods are safe to call while Iterate runs and stamp every
// answer with the epoch (committed iteration count) it reflects.
func ExampleSystem_QueryNeighbors() {
	// Eight users with overlapping tastes: even users like low items,
	// odd users like high items.
	profiles := make([][]knnpc.Item, 8)
	for u := range profiles {
		base := uint32(u%2) * 100
		profiles[u] = []knnpc.Item{
			{ID: base + 1, Weight: 5},
			{ID: base + 2, Weight: 3},
			{ID: base + 10 + uint32(u), Weight: 1},
		}
	}
	sys, err := knnpc.New(profiles, knnpc.Config{K: 2, Partitions: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	// Before any iteration: epoch 0, answers from the random seed graph.
	_, epoch, err := sys.QueryNeighbors(0)
	if err != nil {
		panic(err)
	}
	fmt.Println("epoch before:", epoch)

	if _, err := sys.Run(context.Background(), 4); err != nil {
		panic(err)
	}

	// After convergence: user 0's nearest neighbors are even users.
	ids, epoch, err := sys.QueryNeighbors(0)
	if err != nil {
		panic(err)
	}
	fmt.Println("epoch after > 0:", epoch > 0)
	fmt.Println("neighbors of 0:", ids)

	items, _, err := sys.QueryProfile(0)
	if err != nil {
		panic(err)
	}
	fmt.Println("profile items:", len(items))
	// Output:
	// epoch before: 0
	// epoch after > 0: true
	// neighbors of 0: [2 6]
	// profile items: 3
}
