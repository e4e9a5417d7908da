package main

import (
	"reflect"
	"testing"

	"knnpc/internal/load"
)

func TestUpdateStreamIsBitIdenticalForASeed(t *testing.T) {
	a, b := newUpdateStream(1234, 4000), newUpdateStream(1234, 4000)
	for round := 0; round < 5; round++ {
		if ua, ub := a.next(40), b.next(40); !reflect.DeepEqual(ua, ub) {
			t.Fatalf("round %d: streams of one seed differ", round)
		}
	}
	if reflect.DeepEqual(newUpdateStream(1234, 4000).next(40), newUpdateStream(1235, 4000).next(40)) {
		t.Error("streams of different seeds are equal")
	}
	for _, u := range newUpdateStream(7, 100).next(1000) {
		if u.User >= 100 || u.Item >= 400 || u.Weight < 1 || u.Weight > 5 {
			t.Fatalf("update %+v outside the dataset's user, item or weight range", u)
		}
	}
}

func TestLoadPlanIsBitIdenticalForASeed(t *testing.T) {
	cfg := servePlan(1234, 5)
	a, err := load.BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := load.BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5*serveRate || !reflect.DeepEqual(a, b) {
		t.Fatalf("plans of one seed differ (%d and %d ops)", len(a), len(b))
	}
	c, err := load.BuildPlan(servePlan(1235, 5))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("plans of different seeds are equal")
	}
	for _, op := range a {
		if op.Kind != load.Neighbors && op.Kind != load.Profile && op.Kind != load.Update {
			t.Fatalf("plan holds a %s op the target does not serve", op.Kind)
		}
	}
}
