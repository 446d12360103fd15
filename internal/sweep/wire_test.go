package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"earlyrelease/internal/obs"
	"earlyrelease/internal/pipeline"
)

func sampleLease() *LeaseGrant {
	return &LeaseGrant{
		LeaseID: "ls-7",
		ShardID: "sh-3",
		TraceID: "tr-11",
		Attempt: 2,
		TTL:     30 * time.Second,
		Items: []WorkItem{
			{Point: Point{Workload: "tomcatv", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: 20000}, Key: "k1"},
			{Point: Point{Workload: "listwalk", Policy: "conv", IntRegs: 40, FPRegs: 40, Scale: 20000,
				ROSSize: 64, BPredBits: 10, Eager: true}, Key: "k2"},
		},
	}
}

func sampleComplete() *CompleteRequest {
	return &CompleteRequest{
		LeaseID:  "ls-7",
		WorkerID: "wk-2",
		Outcomes: []WireOutcome{
			{Key: "k1", Result: &pipeline.Result{Name: "tomcatv", Policy: "extended",
				Cycles: 12345, Committed: 20000, IPC: 1.6201}},
			{Key: "k2", Err: "sweep: something failed"},
		},
		Spans: []obs.Span{
			{Name: "w:decode", Ref: "sh-3", StartNS: 1000, EndNS: 2000},
			{Name: "w:simulate", Ref: "sh-3", StartNS: 2000, EndNS: 900000, Detail: "2 points"},
		},
		PointNS: []int64{450000, 0},
	}
}

// TestWireRoundTrip pins encode∘decode as the identity on both
// message types.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range []any{sampleLease(), sampleComplete()} {
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		back, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Errorf("round trip changed %T:\n in: %+v\nout: %+v", m, m, back)
		}
		// Re-encoding the decoded form is byte-identical: the codec is
		// canonical.
		frame2, err := EncodeMessage(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Errorf("%T: re-encode not canonical", m)
		}
	}
}

// TestWireRejectsCorruption flips every byte of valid frames and
// checks the decoder refuses each mutant (checksum or structure) —
// the property the chaos suite's payload-corruption case rests on.
func TestWireRejectsCorruption(t *testing.T) {
	for _, m := range []any{sampleLease(), sampleComplete()} {
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			mut := bytes.Clone(frame)
			mut[i] ^= 0x41
			if _, err := DecodeMessage(mut); err == nil {
				t.Fatalf("%T: byte %d flip not detected", m, i)
			}
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeMessage(frame[:cut]); err == nil {
				t.Fatalf("%T: truncation to %d bytes not detected", m, cut)
			}
		}
		if _, err := DecodeMessage(append(bytes.Clone(frame), 0)); err == nil {
			t.Fatalf("%T: trailing byte not detected", m)
		}
	}
}

// frameWith wraps a payload in an envelope with the given version and
// type byte and a correct checksum, so only the checks behind the
// checksum can reject it.
func frameWith(version, typ byte, payload []byte) []byte {
	frame := append([]byte{'E', 'R', 'S', 'W', version, typ}, payload...)
	sum := sha256.Sum256(frame)
	return append(frame, sum[:checksumLen]...)
}

func TestWireRejectsBadEnvelope(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     []byte("ERSW"),
		"bad magic": append([]byte("NOPE\x02\x01"), make([]byte, 8)...),
	}
	for name, data := range cases {
		if _, err := DecodeMessage(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	// Older frames (v1 pre-tracing, v2 uvarint fields) and unknown
	// versions are refused by version even with a valid checksum:
	// workers and coordinators upgrade in lockstep.
	lease := mustJSON(t, sampleLease())
	for _, v := range []byte{1, 2, 9} {
		_, err := DecodeMessage(frameWith(v, msgLease, lease))
		if err == nil || !strings.Contains(err.Error(), "unsupported wire version") {
			t.Errorf("v%d frame: want an unsupported-version error, got: %v", v, err)
		}
	}
}

// TestWireRejectsOutOfRange wraps crafted payloads in valid envelopes
// (correct checksum), so only the payload decoders stand between them
// and the coordinator. JSON can carry values the decoder must refuse —
// negative numbers included.
func TestWireRejectsOutOfRange(t *testing.T) {
	lease := func(edit func(*LeaseGrant)) []byte {
		l := sampleLease()
		edit(l)
		return frameWith(wireVersion, msgLease, mustJSON(t, l))
	}
	complete := func(edit func(*CompleteRequest)) []byte {
		c := sampleComplete()
		edit(c)
		return frameWith(wireVersion, msgComplete, mustJSON(t, c))
	}
	ttlMax := time.Duration(maxLeaseTTL) * time.Millisecond
	cases := []struct {
		name, want string // want: a fragment of the rejection
		data       []byte
	}{
		{"attempt above 1<<20", "attempt", lease(func(l *LeaseGrant) { l.Attempt = 1<<20 + 1 })},
		{"attempt -1", "attempt", lease(func(l *LeaseGrant) { l.Attempt = -1 })},
		{"TTL -1", "TTL", lease(func(l *LeaseGrant) { l.TTL = -1 })},
		{"TTL above max", "TTL", lease(func(l *LeaseGrant) { l.TTL = ttlMax + time.Millisecond })},
		{"span StartNS -1", "timestamp", complete(func(c *CompleteRequest) { c.Spans[0].StartNS = -1 })},
		{"span EndNS 1<<62+1", "timestamp", complete(func(c *CompleteRequest) { c.Spans[1].EndNS = 1<<62 + 1 })},
		{"PointNS -1", "timestamp", complete(func(c *CompleteRequest) { c.PointNS[1] = -1 })},
		{"non-JSON payload", "payload", frameWith(wireVersion, msgComplete, []byte("not json"))},
		{"JSON then junk", "payload", frameWith(wireVersion, msgLease, append(mustJSON(t, sampleLease()), " x"...))},
		{"unknown type byte", "type", frameWith(wireVersion, 9, mustJSON(t, sampleLease()))},
	}
	for _, tc := range cases {
		m, err := DecodeMessage(tc.data)
		if err == nil {
			t.Errorf("%s: decoded to %+v", tc.name, m)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want a %q rejection, got: %v", tc.name, tc.want, err)
		}
	}
	// The same construction with in-range values decodes, so each case
	// above fails on its own edit and not on the envelope.
	for _, data := range [][]byte{
		lease(func(l *LeaseGrant) { l.Attempt, l.TTL = 1<<20, ttlMax }),
		complete(func(c *CompleteRequest) { c.Spans[1].EndNS, c.PointNS[1] = 1<<62, 0 }),
	} {
		if _, err := DecodeMessage(data); err != nil {
			t.Errorf("in-range boundary rejected: %v", err)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// FuzzShardCodec throws arbitrary bytes at the full decoder and the
// checksum-free payload decoders (so mutation actually reaches the
// field parsers), requiring no panics ever, and decode→encode→decode
// to be the identity whenever the first decode succeeds.
func FuzzShardCodec(f *testing.F) {
	for _, m := range []any{sampleLease(), sampleComplete(), &CompleteRequest{LeaseID: "l", WorkerID: "w"}} {
		if frame, err := EncodeMessage(m); err == nil {
			f.Add(frame)
		}
	}
	f.Add([]byte{'E', 'R', 'S', 'W', wireVersion, msgLease})
	f.Add([]byte("ERSW\x02\x01")) // stale v2 envelope
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeMessage(data); err == nil {
			frame, err := EncodeMessage(m)
			if err != nil {
				t.Fatalf("decoded message failed to re-encode: %v", err)
			}
			m2, err := DecodeMessage(frame)
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatalf("round trip drifted:\n first: %+v\nsecond: %+v", m, m2)
			}
		}
		// The envelope checksum would otherwise shield the payload
		// parsers from every mutated input: fuzz them directly too.
		decodeLeasePayload(data)
		decodeCompletePayload(data)
	})
}
