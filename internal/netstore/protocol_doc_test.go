package netstore

import (
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// docTable extracts "| Name | `0xNN` |" rows from one markdown table
// in the protocol spec, keyed by the first column.
func docTable(t *testing.T, doc []byte, rowRe *regexp.Regexp) map[string]byte {
	t.Helper()
	rows := map[string]byte{}
	for _, m := range rowRe.FindAllStringSubmatch(string(doc), -1) {
		v, err := strconv.ParseUint(m[2], 0, 8)
		if err != nil {
			t.Fatalf("row %q: bad value %q", m[0], m[2])
		}
		rows[m[1]] = byte(v)
	}
	return rows
}

// TestProtocolDocMatchesCode pins docs/PROTOCOL.md to protocol.go:
// every opcode, status, and PUT kind the code defines must appear in
// the spec's tables with the same value, and the spec must not list
// verbs the code lacks. Adding an op without documenting it — or
// renumbering one without updating the spec — fails here.
func TestProtocolDocMatchesCode(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("protocol spec missing: %v", err)
	}

	check := func(section string, rowRe *regexp.Regexp, want map[string]byte) {
		got := docTable(t, doc, rowRe)
		for name, val := range want {
			dv, ok := got[name]
			if !ok {
				t.Errorf("%s: %s (0x%02x) not documented in PROTOCOL.md", section, name, val)
				continue
			}
			if dv != val {
				t.Errorf("%s: PROTOCOL.md says %s = 0x%02x, code says 0x%02x", section, name, dv, val)
			}
		}
		for name, dv := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: PROTOCOL.md documents %s = 0x%02x, which the code does not define", section, name, dv)
			}
		}
	}

	check("opcodes",
		regexp.MustCompile(`(?m)^\| ([A-Z]+) +\| .(0x[0-9a-f]{2}). \|`),
		map[string]byte{
			"GET":       opGet,
			"PUT":       opPut,
			"LEASE":     opLease,
			"RELEASE":   opRelease,
			"COLLECT":   opCollect,
			"CLEAR":     opClear,
			"EPOCH":     opEpoch,
			"GETVIEW":   opGetView,
			"NEIGHBORS": opNeighbors,
			"PROFILE":   opProfile,
			"PUSHUPD":   opPushUpd,
			"DRAINUPD":  opDrainUpd,
			"ADDUSER":   opAddUser,
			"DELUSER":   opDelUser,
			"DRAINMUT":  opDrainMut,
			"STALENESS": opStaleness,
			"WATCH":     opWatch,
			// Statuses share the "| NAME | `0xNN` |" row shape; list
			// them here so the single regexp's catch covers both tables.
			"OK":    statusOK,
			"ERR":   statusErr,
			"PART":  statusPart,
			"END":   statusEnd,
			"STALE": statusStale,
			"MISS":  statusMiss,
			"RETRY": statusRetry,
		})

	check("put kinds",
		regexp.MustCompile(`(?m)^\| (base|partial|deltaview|view|stale) +\| .(0x[0-9a-f]{2}). \|`),
		map[string]byte{
			"base":      putBase,
			"partial":   putPartial,
			"view":      putView,
			"deltaview": putDeltaView,
			"stale":     putStale,
		})
}

// TestProtocolDocStatesWatchTimings: the WATCH section quotes the
// heartbeat interval and the frame deadline the code uses.
func TestProtocolDocStatesWatchTimings(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		re   string
		want time.Duration
		unit time.Duration
	}{
		{"After ([0-9]+) ms without a view \\(`watchHeartbeat`\\)", watchHeartbeat, time.Millisecond},
		{"by ([0-9]+) s \\(`watchTimeout`", watchTimeout, time.Second},
	} {
		m := regexp.MustCompile(c.re).FindSubmatch(doc)
		if m == nil {
			t.Errorf("PROTOCOL.md no longer matches %q", c.re)
			continue
		}
		if got, _ := strconv.Atoi(string(m[1])); time.Duration(got)*c.unit != c.want {
			t.Errorf("PROTOCOL.md says %s %v, code says %v", m[0], time.Duration(got)*c.unit, c.want)
		}
	}
}

// TestProtocolDocCoversFrameBound: the spec's framing section states
// the same payload bound the code enforces.
func TestProtocolDocCoversFrameBound(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	want := "2^28"
	if maxFrame != 1<<28 {
		t.Fatalf("maxFrame changed to %d — update docs/PROTOCOL.md and this test", maxFrame)
	}
	if !regexp.MustCompile(regexp.QuoteMeta(want)).Match(doc) {
		t.Errorf("PROTOCOL.md no longer states the %s-byte frame bound", want)
	}
}
