// Package api pins the versioned HTTP/JSON wire format of the online
// serving tier. Both sides of the wire import it — cmd/knnserve
// encodes these types, cmd/knnload (and any other client) decodes
// them — so the schema lives in exactly one place and cannot fork
// silently. Golden-file tests (testdata/*.json) freeze the v1
// encoding byte for byte: a field rename, type change, or tag edit
// fails the build's tests instead of breaking clients at runtime.
//
// Versioning contract: every path under /v1/ answers with the shapes
// below, and the shapes only grow — new fields may be added (old
// decoders ignore them), existing fields never change name, type, or
// meaning within v1. A breaking change means a /v2/ tree served next
// to /v1/, not an edit here.
package api

// Version is the serving-API generation these types describe. It is
// also the integer reported in StatsResponse.Version so a scraper can
// detect which schema it is reading.
const Version = 1

// URL paths of the v1 serving API. {id} is a decimal user id.
const (
	// PathNeighbors is GET /v1/neighbors/{id} → NeighborsResponse.
	PathNeighbors = "/v1/neighbors/"
	// PathProfile is GET /v1/profile/{id} → ProfileResponse,
	// POST /v1/profile (UpdateRequest body) → UpdateResponse,
	// PUT /v1/profile/{id} (UpsertRequest body) → MutationResponse
	// (add or upsert the user), and DELETE /v1/profile/{id} →
	// MutationResponse (tombstone the user).
	PathProfile = "/v1/profile"
	// PathStaleness is GET /v1/staleness → StalenessResponse.
	PathStaleness = "/v1/staleness"
	// PathStats is GET /v1/stats → StatsResponse.
	PathStats = "/v1/stats"
	// PathHealth is GET /healthz → plain text, one status word on the
	// first line ("ok" when both store tiers answer, "degraded" when
	// exactly one does) followed by one "read <tier>: ..."/"write
	// primaries: ..." reachability line per tier. The HTTP status is
	// 200 while the front end can still serve anything and 503 only
	// when both tiers are unreachable. It is deliberately not JSON:
	// load balancers and shell scripts probe it.
	PathHealth = "/healthz"
)

// Update operations accepted by POST /v1/profile.
const (
	// OpSet sets one (item, weight) entry on the user's profile.
	OpSet = "set"
	// OpRemove removes one item from the user's profile; Weight is
	// ignored.
	OpRemove = "remove"
)

// NeighborsResponse is the body of GET /v1/neighbors/{id}: the user's
// committed KNN list and the engine epoch (iteration) it reflects.
// Neighbors is never null — a served user with no neighbors encodes
// as an empty array.
type NeighborsResponse struct {
	// User echoes the requested user id.
	User uint32 `json:"user"`
	// Epoch is the committed engine iteration the answer reflects.
	Epoch uint64 `json:"epoch"`
	// Neighbors are the user's KNN ids, in the graph's sorted order.
	Neighbors []uint32 `json:"neighbors"`
}

// ProfileItem is one (item, weight) entry of a served profile vector.
type ProfileItem struct {
	// Item is the item id.
	Item uint32 `json:"item"`
	// Weight is the item's weight in the profile vector.
	Weight float32 `json:"weight"`
}

// ProfileResponse is the body of GET /v1/profile/{id}: the user's
// committed profile vector and the epoch it reflects. Items is never
// null.
type ProfileResponse struct {
	// User echoes the requested user id.
	User uint32 `json:"user"`
	// Epoch is the committed engine iteration the answer reflects.
	Epoch uint64 `json:"epoch"`
	// Items are the profile entries in the vector's canonical
	// (ascending item id) order.
	Items []ProfileItem `json:"items"`
}

// ProfileUpdate is one profile mutation in an UpdateRequest. Op is
// OpSet or OpRemove; anything else is rejected with a 400 before the
// batch touches the store.
type ProfileUpdate struct {
	// User is the profile to mutate.
	User uint32 `json:"user"`
	// Op is OpSet or OpRemove.
	Op string `json:"op"`
	// Item is the item id the op targets.
	Item uint32 `json:"item"`
	// Weight is the new weight for OpSet; omitted/ignored for
	// OpRemove.
	Weight float32 `json:"weight,omitempty"`
}

// UpdateRequest is the body of POST /v1/profile: a batch of profile
// updates queued for the engine's next phase 5. The batch is applied
// atomically to the queue — either every update is accepted (202) or
// none is (4xx/5xx).
type UpdateRequest struct {
	// Updates is the ordered batch; per-user order is preserved all
	// the way into phase 5.
	Updates []ProfileUpdate `json:"updates"`
}

// UpdateResponse is the 202 body of POST /v1/profile.
type UpdateResponse struct {
	// Queued is the number of updates accepted into the phase-5
	// queue.
	Queued int `json:"queued"`
}

// Mutation operations echoed in MutationResponse.Op.
const (
	// OpUpsert is PUT /v1/profile/{id}: add the user (or replace its
	// profile and re-insert its neighborhood if it already exists).
	OpUpsert = "upsert"
	// OpDelete is DELETE /v1/profile/{id}: tombstone the user.
	OpDelete = "delete"
)

// UpsertRequest is the body of PUT /v1/profile/{id}: the full profile
// vector of the user being added or upserted. New users must take the
// next sequential id; the engine's delta pass orders concurrent adds.
type UpsertRequest struct {
	// Items are the profile entries, in ascending item id order.
	Items []ProfileItem `json:"items"`
}

// MutationResponse is the 202 body of PUT and DELETE
// /v1/profile/{id}: the mutation was queued for the engine's next
// delta pass (it is not yet visible to lookups).
type MutationResponse struct {
	// User echoes the mutated user id.
	User uint32 `json:"user"`
	// Op is OpUpsert or OpDelete.
	Op string `json:"op"`
}

// PartitionStaleness is one partition's drift row in a
// StalenessResponse.
type PartitionStaleness struct {
	// Partition is the partition id.
	Partition uint32 `json:"partition"`
	// Adds counts users added to the partition since its last full
	// iteration.
	Adds uint64 `json:"adds"`
	// Deletes counts users tombstoned since the last full iteration.
	Deletes uint64 `json:"deletes"`
	// TouchedEdges estimates graph edges rewritten by delta commits.
	TouchedEdges uint64 `json:"touched_edges"`
	// Members is the partition's population at the last full
	// iteration.
	Members uint64 `json:"members"`
	// Score is the normalized drift the engine's staleness threshold
	// compares against: (Adds + Deletes + TouchedEdges/K) / max(1,
	// Members).
	Score float64 `json:"score"`
}

// StalenessResponse is the body of GET /v1/staleness: the engine's
// published per-partition drift table. Partitions is never null.
type StalenessResponse struct {
	// LastFullEpoch is the committed epoch of the most recent full
	// five-phase iteration.
	LastFullEpoch uint64 `json:"last_full_epoch"`
	// Threshold is the engine's configured staleness threshold; 0
	// means delta scheduling is disabled.
	Threshold float64 `json:"threshold"`
	// Users is the engine's total committed id space (tombstoned ids
	// included): the next fresh PUT /v1/profile/{id} add takes id
	// Users, and ids far beyond it are rejected with 422.
	Users uint64 `json:"users"`
	// Partitions holds one row per partition, ascending by id.
	Partitions []PartitionStaleness `json:"partitions"`
}

// ErrorResponse is the body of every non-2xx JSON answer. The HTTP
// status code carries the class (400 bad request, 404 user not in any
// published view, 502 store failure); Error carries the detail.
type ErrorResponse struct {
	// Error is a human-readable description of what failed.
	Error string `json:"error"`
}

// Endpoint names used as keys of StatsResponse.Endpoints.
const (
	// EndpointNeighbors aggregates GET /v1/neighbors/{id}.
	EndpointNeighbors = "neighbors"
	// EndpointProfile aggregates GET /v1/profile/{id}.
	EndpointProfile = "profile"
	// EndpointUpdate aggregates POST /v1/profile.
	EndpointUpdate = "update"
	// EndpointUpsert aggregates PUT /v1/profile/{id}.
	EndpointUpsert = "upsert"
	// EndpointDelete aggregates DELETE /v1/profile/{id}.
	EndpointDelete = "delete"
	// EndpointStaleness aggregates GET /v1/staleness.
	EndpointStaleness = "staleness"
)

// EndpointStats is one endpoint's row in StatsResponse: request and
// failure counts since process start plus latency percentiles from
// the server's log-scale histogram (stable over millions of requests
// — the buckets never overflow or decay).
type EndpointStats struct {
	// Requests counts every request routed to the endpoint.
	Requests uint64 `json:"requests"`
	// Errors counts requests answered with a non-2xx status other
	// than a lookup miss.
	Errors uint64 `json:"errors"`
	// Misses counts 404 lookup answers — the user was in no published
	// view. Always 0 for the update endpoint.
	Misses uint64 `json:"misses"`
	// P50Ms, P90Ms, P95Ms and P99Ms are handler-latency percentiles
	// in milliseconds, measured request-in to response-out.
	P50Ms float64 `json:"p50_ms"`
	// P90Ms is the 90th-percentile handler latency in milliseconds.
	P90Ms float64 `json:"p90_ms"`
	// P95Ms is the 95th-percentile handler latency in milliseconds.
	P95Ms float64 `json:"p95_ms"`
	// P99Ms is the 99th-percentile handler latency in milliseconds.
	P99Ms float64 `json:"p99_ms"`
}

// StatsResponse is the body of GET /v1/stats: structured per-endpoint
// counters and latency percentiles.
type StatsResponse struct {
	// Version identifies the stats schema generation (currently 1).
	Version int `json:"version"`
	// ReadTier is "replicas" when lookups are served from the replica
	// tier, "primaries" otherwise.
	ReadTier string `json:"read_tier"`
	// UpdatesQueued counts individual profile updates accepted since
	// process start.
	UpdatesQueued uint64 `json:"updates_queued"`
	// ReadFallbacks counts lookups the replica tier failed transiently
	// and the primaries answered instead — degraded-mode serving.
	// Always 0 when ReadTier is "primaries" (there is nothing to fall
	// back to).
	ReadFallbacks uint64 `json:"read_fallbacks"`
	// Shed counts requests refused with 503 + Retry-After because the
	// server was at its configured in-flight limit.
	Shed uint64 `json:"shed"`
	// Endpoints maps the Endpoint* names (neighbors, profile, update,
	// upsert, delete, staleness) to their counters.
	Endpoints map[string]EndpointStats `json:"endpoints"`
}
