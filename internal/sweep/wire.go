package sweep

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/pipeline"
)

// The shard wire codec frames the two federation messages — a lease
// grant handed to a worker and the worker's completion report — in a
// checksummed envelope around a JSON payload:
//
//	magic "ERSW" | version 3 | type byte | JSON payload | sha256[:8]
//
// The payload is json.Marshal of the *LeaseGrant or *CompleteRequest
// itself, so each Result inside a completion is the same JSON the
// cache persists. The trailing checksum covers everything before it,
// so a truncated or bit-flipped message is rejected before any field
// is believed. The decoder rejects trailing junk and range-checks the
// numbers a peer could forge (attempt, TTL, span and per-point
// nanoseconds); FuzzShardCodec keeps it panic-free and encode∘decode
// the identity on valid messages.
//
// Tracing rides along (DESIGN.md §4.9): a lease grant names the trace
// its shard belongs to, and a completion carries the worker-side spans
// (decode, simulate) plus per-point simulation nanoseconds.
// Frames of any other version are rejected — workers and coordinators
// upgrade together.

const (
	wireVersion = 3
	msgLease    = 1
	msgComplete = 2
	checksumLen = 8
	maxLeaseTTL = int64(1) << 40 // ms; ~35 years, rejects absurd values
)

var wireMagic = [4]byte{'E', 'R', 'S', 'W'}

// WorkItem is one leased simulation: the point to run and the content
// key the coordinator planned for it. Workers must report results
// under exactly this key — the coordinator verifies it on completion.
type WorkItem struct {
	Point Point  `json:"point"`
	Key   string `json:"key"`
}

// LeaseGrant is the coordinator's answer to a lease request: a shard
// of work items owned by the worker until TTL elapses (renewable).
type LeaseGrant struct {
	LeaseID string
	ShardID string
	TraceID string        // the submitting job's trace, propagated to the worker
	Attempt int           // 1 on first lease, +1 per expiry requeue
	TTL     time.Duration // integer nanoseconds in the JSON payload
	Items   []WorkItem

	// decodeStart/decodeEnd bracket the wire decode on the worker side
	// (set by Client.LeaseShard, not carried on the wire): the worker
	// reports them back as its w:decode span.
	decodeStart, decodeEnd time.Time
}

// WireOutcome is one point's completion report: the planned key plus
// either a result or a per-point error (never both, never neither).
type WireOutcome struct {
	Key    string
	Err    string
	Result *pipeline.Result
}

// CompleteRequest reports a whole leased shard, outcomes in item order.
// Spans and PointNS are the worker-side observability piggyback: spans
// for decode/simulate, and per-point simulation wall nanoseconds
// aligned with Outcomes (0 = untimed: the point failed before it ran).
// Both are advisory — the coordinator verifies outcomes, never
// timings, and a missing piggyback only costs visibility.
type CompleteRequest struct {
	LeaseID  string
	WorkerID string
	Outcomes []WireOutcome
	Spans    []obs.Span
	PointNS  []int64
}

var errTruncated = errors.New("sweep: wire message truncated")

// EncodeMessage frames a *LeaseGrant or *CompleteRequest for the wire.
func EncodeMessage(m any) ([]byte, error) {
	var typ byte
	switch m.(type) {
	case *LeaseGrant:
		typ = msgLease
	case *CompleteRequest:
		typ = msgComplete
	default:
		return nil, fmt.Errorf("sweep: cannot encode %T", m)
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 0, len(wireMagic)+2+len(payload)+checksumLen)
	frame = append(frame, wireMagic[:]...)
	frame = append(frame, wireVersion, typ)
	frame = append(frame, payload...)
	sum := sha256.Sum256(frame)
	return append(frame, sum[:checksumLen]...), nil
}

// DecodeMessage validates the envelope (magic, version, checksum) and
// decodes the payload into a *LeaseGrant or *CompleteRequest. It never
// panics on hostile input; any structural violation is an error.
func DecodeMessage(data []byte) (any, error) {
	if len(data) < len(wireMagic)+2+checksumLen {
		return nil, errTruncated
	}
	if [4]byte(data[:4]) != wireMagic {
		return nil, errors.New("sweep: bad wire magic")
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("sweep: unsupported wire version %d", data[4])
	}
	body, tail := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	sum := sha256.Sum256(body)
	if [checksumLen]byte(tail) != [checksumLen]byte(sum[:checksumLen]) {
		return nil, errors.New("sweep: wire checksum mismatch (corrupt message)")
	}
	payload := body[6:]
	switch data[5] {
	case msgLease:
		return decodeLeasePayload(payload)
	case msgComplete:
		return decodeCompletePayload(payload)
	}
	return nil, fmt.Errorf("sweep: unknown wire message type %d", data[5])
}

func decodeLeasePayload(payload []byte) (*LeaseGrant, error) {
	l := &LeaseGrant{}
	if err := json.Unmarshal(payload, l); err != nil {
		return nil, fmt.Errorf("sweep: wire lease payload: %w", err)
	}
	if l.Attempt < 0 || l.Attempt > 1<<20 {
		return nil, fmt.Errorf("sweep: wire attempt %d out of range", l.Attempt)
	}
	if l.TTL < 0 || l.TTL > time.Duration(maxLeaseTTL)*time.Millisecond {
		return nil, fmt.Errorf("sweep: wire lease TTL %v out of range", l.TTL)
	}
	return l, nil
}

func decodeCompletePayload(payload []byte) (*CompleteRequest, error) {
	c := &CompleteRequest{}
	if err := json.Unmarshal(payload, c); err != nil {
		return nil, fmt.Errorf("sweep: wire complete payload: %w", err)
	}
	for _, s := range c.Spans {
		if err := checkNanos(s.StartNS, s.EndNS); err != nil {
			return nil, err
		}
	}
	if err := checkNanos(c.PointNS...); err != nil {
		return nil, err
	}
	return c, nil
}

// checkNanos rejects nanosecond timestamps/durations that cannot be a
// sane unix-nano instant (keeps int64 math on them overflow-free).
func checkNanos(vs ...int64) error {
	for _, v := range vs {
		if v < 0 || v > 1<<62 {
			return fmt.Errorf("sweep: wire timestamp %d out of range", v)
		}
	}
	return nil
}
