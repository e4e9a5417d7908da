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
func (Cosine) Score(a, b Vector) float64 { return cosine(a.Dot(b), a, b) }

func (Cosine) scoreFrom(x *Source, d Vector) float64 {
	dot, _ := x.overlap(d)
	return cosine(dot, x.src, d)
}

func cosine(dot float64, a, b Vector) float64 {
	na, nb := a.norm, b.norm
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// Name implements Similarity.
func (Cosine) Name() string { return "cosine" }

// Jaccard is the Jaccard set similarity |A∩B|/|A∪B| over the item sets,
// ignoring weights. Score is in [0, 1]; two empty profiles score 0.
type Jaccard struct{}

// Score implements Similarity.
func (Jaccard) Score(a, b Vector) float64 { return jaccard(a.IntersectionSize(b), a, b) }

func (Jaccard) scoreFrom(x *Source, d Vector) float64 {
	_, inter := x.overlap(d)
	return jaccard(inter, x.src, d)
}

func jaccard(inter int, a, b Vector) float64 {
	union := a.Len() + b.Len() - inter
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
func (Dice) Score(a, b Vector) float64 { return dice(a.IntersectionSize(b), a, b) }

func (Dice) scoreFrom(x *Source, d Vector) float64 {
	_, inter := x.overlap(d)
	return dice(inter, x.src, d)
}

func dice(inter int, a, b Vector) float64 {
	total := a.Len() + b.Len()
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
func (Overlap) Score(a, b Vector) float64 { return overlapCoeff(a.IntersectionSize(b), a, b) }

func (Overlap) scoreFrom(x *Source, d Vector) float64 {
	_, inter := x.overlap(d)
	return overlapCoeff(inter, x.src, d)
}

func overlapCoeff(inter int, a, b Vector) float64 {
	smaller := min(a.Len(), b.Len())
	if smaller == 0 {
		return 0
	}
	return float64(inter) / float64(smaller)
}

// Name implements Similarity.
func (Overlap) Name() string { return "overlap" }

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

	_ sourceScorer = Cosine{}
	_ sourceScorer = Jaccard{}
	_ sourceScorer = Dice{}
	_ sourceScorer = Overlap{}
)
