package dataset

import (
	"sort"
	"testing"

	"knnpc/internal/graph"
	"knnpc/internal/profile"
)

func TestGenerateExactCounts(t *testing.T) {
	spec := GraphSpec{Name: "t", Nodes: 500, Edges: 3000, Alpha: 0.7, Seed: 1}
	g, err := spec.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.NumNodes() != 500 || g.NumEdges() != 3000 {
		t.Errorf("got n=%d m=%d, want exactly 500/3000", g.NumNodes(), g.NumEdges())
	}
}

func TestGenerateSimpleGraphInvariants(t *testing.T) {
	g, err := GraphSpec{Name: "t", Nodes: 200, Edges: 1500, Alpha: 0.8, Seed: 2}.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	seen := make(map[graph.Edge]bool)
	for _, e := range g.Edges() {
		if e.Src == e.Dst {
			t.Fatalf("self loop at %d", e.Src)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GraphSpec{Name: "t", Nodes: 300, Edges: 2000, Alpha: 0.7, Seed: 3}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("edge counts differ across runs")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
	c, err := GraphSpec{Name: "t", Nodes: 300, Edges: 2000, Alpha: 0.7, Seed: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	ce := c.Edges()
	for i := range ae {
		if ae[i] != ce[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different graphs")
	}
}

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name string
		spec GraphSpec
	}{
		{"too few nodes", GraphSpec{Nodes: 1, Edges: 0}},
		{"too many edges", GraphSpec{Nodes: 3, Edges: 7}},
		{"negative edges", GraphSpec{Nodes: 3, Edges: -1}},
		{"negative alpha", GraphSpec{Nodes: 3, Edges: 2, Alpha: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.spec.Generate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestAlphaControlsSkew(t *testing.T) {
	flat, err := GraphSpec{Name: "flat", Nodes: 2000, Edges: 10000, Alpha: 0, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := GraphSpec{Name: "skewed", Nodes: 2000, Edges: 10000, Alpha: 0.9, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	flatMax, flatTop := degreeSpread(flat.TotalDegrees())
	skewedMax, skewedTop := degreeSpread(skewed.TotalDegrees())
	if skewedTop <= flatTop {
		t.Errorf("alpha=0.9 should be more unequal than alpha=0: top-decile degree share %g vs %g",
			skewedTop, flatTop)
	}
	if skewedMax < 3*flatMax {
		t.Errorf("skewed max degree %d should dwarf flat max %d", skewedMax, flatMax)
	}
}

// degreeSpread reports a degree distribution's maximum and the share of
// all edge endpoints held by the top tenth of the nodes — 0.1 when
// degrees are uniform, toward 1 when a few hubs hold most edges.
func degreeSpread(degrees []int) (maxDeg int, topShare float64) {
	sorted := append([]int(nil), degrees...)
	sort.Ints(sorted)
	total, top := 0, 0
	for i, d := range sorted {
		total += d
		if i >= len(sorted)-len(sorted)/10 {
			top += d
		}
	}
	return sorted[len(sorted)-1], float64(top) / float64(total)
}

func TestWeightsShuffledNoIDCorrelation(t *testing.T) {
	// Node ids must not encode degree rank: the average degree of the
	// first half of ids should be close to the second half's.
	g, err := GraphSpec{Name: "t", Nodes: 2000, Edges: 20000, Alpha: 0.8, Seed: 6}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	degs := g.TotalDegrees()
	var lo, hi float64
	half := len(degs) / 2
	for i, d := range degs {
		if i < half {
			lo += float64(d)
		} else {
			hi += float64(d)
		}
	}
	lo /= float64(half)
	hi /= float64(len(degs) - half)
	ratio := lo / hi
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("degree mass correlates with id halves: %.2f vs %.2f", lo, hi)
	}
}

func TestUniformRandom(t *testing.T) {
	g, err := UniformRandom(100, 500, 7)
	if err != nil {
		t.Fatalf("UniformRandom: %v", err)
	}
	if g.NumNodes() != 100 || g.NumEdges() != 500 {
		t.Errorf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestPaperPresetsMatchTable1(t *testing.T) {
	want := map[string][2]int{
		WikiVote:     {7115, 100762},
		GeneralRel:   {5241, 14484},
		HighEnergy:   {12006, 118489},
		AstroPhysics: {18771, 198050},
		Email:        {36692, 183831},
		Gnutella:     {26518, 65369},
	}
	presets := PaperPresets()
	if len(presets) != 6 {
		t.Fatalf("want 6 presets, got %d", len(presets))
	}
	for _, spec := range presets {
		w, ok := want[spec.Name]
		if !ok {
			t.Errorf("unexpected preset %q", spec.Name)
			continue
		}
		if spec.Nodes != w[0] || spec.Edges != w[1] {
			t.Errorf("%s: spec %d/%d, want %d/%d", spec.Name, spec.Nodes, spec.Edges, w[0], w[1])
		}
	}
}

func TestPresetGnutellaFlatterThanWiki(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size preset graphs")
	}
	wiki, ok := PresetByName(WikiVote)
	if !ok {
		t.Fatal("missing Wiki-Vote preset")
	}
	gnut, ok := PresetByName(Gnutella)
	if !ok {
		t.Fatal("missing Gnutella preset")
	}
	gw, err := wiki.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gg, err := gnut.Generate()
	if err != nil {
		t.Fatal(err)
	}
	_, wikiTop := degreeSpread(gw.TotalDegrees())
	_, gnutTop := degreeSpread(gg.TotalDegrees())
	if wikiTop <= gnutTop {
		t.Errorf("Wiki-Vote should be more skewed than Gnutella: top-decile degree share %g vs %g", wikiTop, gnutTop)
	}
}

func TestPresetByNameUnknown(t *testing.T) {
	if _, ok := PresetByName("LiveJournal"); ok {
		t.Error("unknown preset should report false")
	}
}

func TestProfileGeneration(t *testing.T) {
	vecs, clusters, err := RatingsProfiles(200, 1000, 20, 4, 9)
	if err != nil {
		t.Fatalf("RatingsProfiles: %v", err)
	}
	if len(vecs) != 200 || len(clusters) != 200 {
		t.Fatalf("got %d vectors, %d clusters", len(vecs), len(clusters))
	}
	for u, v := range vecs {
		if v.Len() == 0 {
			t.Fatalf("user %d has an empty profile", u)
		}
		for _, e := range v.Entries() {
			if e.Item >= 1000 {
				t.Fatalf("user %d item %d outside item space", u, e.Item)
			}
			if e.Weight < 1 || e.Weight > 5 {
				t.Fatalf("user %d weight %g outside [1,5]", u, e.Weight)
			}
		}
		if clusters[u] < 0 || clusters[u] >= 4 {
			t.Fatalf("user %d cluster %d out of range", u, clusters[u])
		}
	}
}

func TestProfileClustersAreMeaningful(t *testing.T) {
	vecs, clusters, err := RatingsProfiles(120, 2000, 25, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	sim := profile.Cosine{}
	var same, cross float64
	var sameN, crossN int
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			s := sim.Score(vecs[i], vecs[j])
			if clusters[i] == clusters[j] {
				same += s
				sameN++
			} else {
				cross += s
				crossN++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Skip("degenerate cluster assignment")
	}
	if same/float64(sameN) <= 2*cross/float64(crossN) {
		t.Errorf("same-cluster similarity %.4f should clearly exceed cross-cluster %.4f",
			same/float64(sameN), cross/float64(crossN))
	}
}

func TestProfileSpecValidation(t *testing.T) {
	base := ProfileSpec{Users: 10, Items: 100, ItemsPerUser: 5, Clusters: 2, MaxWeight: 5}
	tests := []struct {
		name   string
		mutate func(*ProfileSpec)
	}{
		{"zero users", func(s *ProfileSpec) { s.Users = 0 }},
		{"zero items", func(s *ProfileSpec) { s.Items = 0 }},
		{"zero itemsPerUser", func(s *ProfileSpec) { s.ItemsPerUser = 0 }},
		{"zero clusters", func(s *ProfileSpec) { s.Clusters = 0 }},
		{"bad noise", func(s *ProfileSpec) { s.Noise = 1.5 }},
		{"zero weight", func(s *ProfileSpec) { s.MaxWeight = 0 }},
		{"profile longer than item space", func(s *ProfileSpec) { s.ItemsPerUser = 1000 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := base
			tt.mutate(&spec)
			if _, _, err := spec.Generate(); err == nil {
				t.Error("want error")
			}
		})
	}
}
