package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// ErrMiss marks an op answered "user not in any published view" —
// counted separately from protocol errors, because a miss is a
// legitimate answer early in a run (before the first iteration
// commits) while an error never is.
var ErrMiss = errors.New("load: user not in any published view")

// Target is one system under test. Do executes a single op
// synchronously and reports nil (success), ErrMiss, or a protocol/
// transport error. Implementations must be safe for concurrent Do
// calls — the runner fans ops across many goroutines.
type Target interface {
	// Name labels the target in tables and bench lines.
	Name() string
	// Do executes one op.
	Do(op Op) error
	// Close releases the target's connections.
	Close() error
}

// HTTPTarget drives a knnserve front end over HTTP, decoding every
// answer through the shared api types — so a server that drifts from
// the pinned v1 schema fails loudly here, not silently in production.
type HTTPTarget struct {
	name string
	base string
	c    *http.Client
}

// NewHTTPTarget builds a target for a knnserve base URL
// ("http://host:port"). timeout bounds each request (0 = 5s).
func NewHTTPTarget(name, baseURL string, timeout time.Duration) *HTTPTarget {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &HTTPTarget{
		name: name,
		base: baseURL,
		c: &http.Client{
			Timeout: timeout,
			// Per-target transport so two targets in one process do
			// not share (and so skew) a connection pool.
			Transport: &http.Transport{MaxIdleConnsPerHost: 64},
		},
	}
}

// Name labels the target.
func (t *HTTPTarget) Name() string { return t.name }

// Close idles the connection pool.
func (t *HTTPTarget) Close() error {
	t.c.CloseIdleConnections()
	return nil
}

// Do executes one op against the HTTP API.
func (t *HTTPTarget) Do(op Op) error {
	switch op.Kind {
	case Neighbors:
		var out api.NeighborsResponse
		if err := t.get(fmt.Sprintf("%s%s%d", t.base, api.PathNeighbors, op.User), &out); err != nil {
			return err
		}
		if out.User != op.User {
			return fmt.Errorf("load: neighbors answer for user %d, asked %d", out.User, op.User)
		}
		return nil
	case Profile:
		var out api.ProfileResponse
		if err := t.get(fmt.Sprintf("%s%s/%d", t.base, api.PathProfile, op.User), &out); err != nil {
			return err
		}
		if out.User != op.User {
			return fmt.Errorf("load: profile answer for user %d, asked %d", out.User, op.User)
		}
		return nil
	case Update:
		body, err := json.Marshal(api.UpdateRequest{Updates: []api.ProfileUpdate{
			{User: op.User, Op: api.OpSet, Item: op.Item, Weight: op.Weight},
		}})
		if err != nil {
			return err
		}
		resp, err := t.c.Post(t.base+api.PathProfile, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer drain(resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			return httpError(resp)
		}
		var out api.UpdateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("load: bad update response: %w", err)
		}
		if out.Queued != 1 {
			return fmt.Errorf("load: queued %d updates, pushed 1", out.Queued)
		}
		return nil
	case AddUser:
		body, err := json.Marshal(api.UpsertRequest{Items: []api.ProfileItem{
			{Item: op.Item, Weight: op.Weight},
		}})
		if err != nil {
			return err
		}
		return t.mutate(http.MethodPut, op.User, bytes.NewReader(body), api.OpUpsert)
	case DelUser:
		return t.mutate(http.MethodDelete, op.User, nil, api.OpDelete)
	}
	return fmt.Errorf("load: unknown op kind %d", op.Kind)
}

// mutate issues a PUT or DELETE /v1/profile/{id} and checks the 202
// echo.
func (t *HTTPTarget) mutate(method string, user uint32, body io.Reader, wantOp string) error {
	req, err := http.NewRequest(method, fmt.Sprintf("%s%s/%d", t.base, api.PathProfile, user), body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.c.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return httpError(resp)
	}
	var out api.MutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("load: bad mutation response: %w", err)
	}
	if out.User != user || out.Op != wantOp {
		return fmt.Errorf("load: mutation echo {%d %s}, want {%d %s}", out.User, out.Op, user, wantOp)
	}
	return nil
}

// get fetches a lookup URL and decodes a 200 into out.
func (t *HTTPTarget) get(url string, out any) error {
	resp, err := t.c.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusNotFound:
		return ErrMiss
	default:
		return httpError(resp)
	}
}

// httpError turns a non-2xx answer into an error, preferring the v1
// JSON error shape when the body carries one. 503s wrap ErrShed so
// the runner books them as sheds, not protocol failures.
func httpError(resp *http.Response) error {
	sentinel := error(nil)
	if resp.StatusCode == http.StatusServiceUnavailable {
		sentinel = ErrShed
	}
	var e api.ErrorResponse
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
		if sentinel != nil {
			return fmt.Errorf("%w: HTTP %d: %s", sentinel, resp.StatusCode, e.Error)
		}
		return fmt.Errorf("load: HTTP %d: %s", resp.StatusCode, e.Error)
	}
	if sentinel != nil {
		return fmt.Errorf("%w: HTTP %d", sentinel, resp.StatusCode)
	}
	return fmt.Errorf("load: HTTP %d", resp.StatusCode)
}

// drain consumes and closes a response body so the connection is
// reusable.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<16))
	body.Close()
}

// DirectTarget drives the netstore client directly — the same verbs
// knnserve issues, minus HTTP — so comparing it against an HTTPTarget
// on the same store isolates the front end's overhead.
type DirectTarget struct {
	name string
	c    *netstore.Client
}

// NewDirectTarget dials a store tier (primaries, or replicas for a
// read-only workload: a replica refuses writes) as a direct load target.
func NewDirectTarget(name string, addrs []string, partitions int) (*DirectTarget, error) {
	c, err := netstore.Dial(addrs, partitions)
	if err != nil {
		return nil, fmt.Errorf("load: dial %s: %w", name, err)
	}
	return &DirectTarget{name: name, c: c}, nil
}

// Name labels the target.
func (t *DirectTarget) Name() string { return t.name }

// Close releases the store client.
func (t *DirectTarget) Close() error { return t.c.Close() }

// Do executes one op against the store protocol.
func (t *DirectTarget) Do(op Op) error {
	switch op.Kind {
	case Neighbors:
		_, _, err := t.c.Neighbors(op.User)
		return missOr(err)
	case Profile:
		_, blob, err := t.c.ProfileBytes(op.User)
		if err != nil {
			return missOr(err)
		}
		// Decode like the HTTP path does, so both targets do the same
		// work per op and corrupt blobs surface as errors.
		if _, rest, err := profile.DecodeVector(blob); err != nil || len(rest) != 0 {
			return fmt.Errorf("load: corrupt profile for user %d: %v", op.User, err)
		}
		return nil
	case Update:
		return t.c.PushUpdates([]profile.Update{
			{User: op.User, Kind: profile.SetItem, Item: op.Item, Weight: op.Weight},
		})
	case AddUser:
		vec, err := profile.NewVector([]profile.Entry{{Item: op.Item, Weight: op.Weight}})
		if err != nil {
			return err
		}
		return t.c.AddUser(op.User, vec.AppendBinary(nil))
	case DelUser:
		return t.c.DelUser(op.User)
	}
	return fmt.Errorf("load: unknown op kind %d", op.Kind)
}

// missOr maps the store's not-served sentinel onto ErrMiss.
func missOr(err error) error {
	if errors.Is(err, netstore.ErrNotServed) {
		return ErrMiss
	}
	return err
}
