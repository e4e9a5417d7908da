package profile

// Similarity scores how alike two user profiles are. Implementations
// must be symmetric (Score(a,b) == Score(b,a)) and deterministic; the
// KNN engine relies on both properties when it scores a tuple (s, d)
// once and credits the result to both endpoints.
type Similarity interface {
	// Score returns the similarity of a and b. Higher is more similar.
	Score(a, b Vector) float64
	// Name identifies the measure in logs and experiment output.
	Name() string
}

// Cosine is the cosine similarity dot(a,b)/(|a|·|b|). For non-negative
// weights the score is in [0, 1]; if either vector is empty the score
// is 0.
type Cosine struct{}

// Score implements Similarity.
func (c Cosine) Score(a, b Vector) float64 { return c.fromOverlap(a.Dot(b), 0, a.shape(), b.shape()) }

func (c Cosine) scoreFrom(x *Source, d Vector) float64 {
	dot, _ := x.overlap(d)
	return c.fromOverlap(dot, 0, x.src.shape(), d.shape())
}

func (Cosine) fromOverlap(dot float64, _ int, a, b shape) float64 {
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	return dot / (a.norm * b.norm)
}

// Name implements Similarity.
func (Cosine) Name() string { return "cosine" }

// Jaccard is the Jaccard set similarity |A∩B|/|A∪B| over the item sets,
// ignoring weights. Score is in [0, 1]; two empty profiles score 0.
type Jaccard struct{}

// Score implements Similarity.
func (j Jaccard) Score(a, b Vector) float64 {
	return j.fromOverlap(0, a.IntersectionSize(b), a.shape(), b.shape())
}

func (j Jaccard) scoreFrom(x *Source, d Vector) float64 {
	_, inter := x.overlap(d)
	return j.fromOverlap(0, inter, x.src.shape(), d.shape())
}

func (Jaccard) fromOverlap(_ float64, inter int, a, b shape) float64 {
	union := a.n + b.n - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Name implements Similarity.
func (Jaccard) Name() string { return "jaccard" }

// Dice is the Sørensen–Dice coefficient 2|A∩B|/(|A|+|B|) over item
// sets. Score is in [0, 1]; two empty profiles score 0.
type Dice struct{}

// Score implements Similarity.
func (d Dice) Score(a, b Vector) float64 {
	return d.fromOverlap(0, a.IntersectionSize(b), a.shape(), b.shape())
}

func (c Dice) scoreFrom(x *Source, d Vector) float64 {
	_, inter := x.overlap(d)
	return c.fromOverlap(0, inter, x.src.shape(), d.shape())
}

func (Dice) fromOverlap(_ float64, inter int, a, b shape) float64 {
	total := a.n + b.n
	if total == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(total)
}

// Name implements Similarity.
func (Dice) Name() string { return "dice" }

// Overlap is the overlap coefficient |A∩B|/min(|A|,|B|) over item sets.
// Score is in [0, 1]; if either profile is empty the score is 0.
type Overlap struct{}

// Score implements Similarity.
func (o Overlap) Score(a, b Vector) float64 {
	return o.fromOverlap(0, a.IntersectionSize(b), a.shape(), b.shape())
}

func (o Overlap) scoreFrom(x *Source, d Vector) float64 {
	_, inter := x.overlap(d)
	return o.fromOverlap(0, inter, x.src.shape(), d.shape())
}

func (Overlap) fromOverlap(_ float64, inter int, a, b shape) float64 {
	smaller := min(a.n, b.n)
	if smaller == 0 {
		return 0
	}
	return float64(inter) / float64(smaller)
}

// Name implements Similarity.
func (Overlap) Name() string { return "overlap" }

// formula is implemented by measures that are a function of what two
// profiles share — the inner product dot and the count shared of their
// common items — and of each side's shape. fromOverlap is each such
// measure's one statement of its score: Score, scoreFrom (a Source's
// path, which finds the shared items by probing and calls fromOverlap
// statically, as the phase-4 kernel's inner step) and Index all end in
// it, so whichever of them found the shared items, equal statistics
// give equal bits. A measure reads only the statistic it needs; callers
// that know it need not compute the other. fromOverlap(0, 0, a, b) is 0
// whatever the shapes: a pair that shares no item scores 0, which is
// what lets an Index look only at users that share an item.
type formula interface {
	fromOverlap(dot float64, shared int, a, b shape) float64
	scoreFrom(x *Source, d Vector) float64
}

// shape is what a measure reads of one side of a pair besides the
// shared items: its Euclidean norm and its item count.
type shape struct {
	norm float64
	n    int
}

// ByName returns the similarity measure with the given name, used by
// command-line tools. It reports false for unknown names.
func ByName(name string) (Similarity, bool) {
	switch name {
	case "cosine":
		return Cosine{}, true
	case "jaccard":
		return Jaccard{}, true
	case "dice":
		return Dice{}, true
	case "overlap":
		return Overlap{}, true
	default:
		return nil, false
	}
}

var (
	_ Similarity = Cosine{}
	_ Similarity = Jaccard{}
	_ Similarity = Dice{}
	_ Similarity = Overlap{}

	_ formula = Cosine{}
	_ formula = Jaccard{}
	_ formula = Dice{}
	_ formula = Overlap{}
)
