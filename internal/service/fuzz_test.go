package service

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sleepmst/internal/transport"
)

// fuzzSeeds are the interesting request-frame bodies: canonical
// encodings, truncations at every prefix length, oversized and
// non-minimal length fields, garbage, and frames of the wrong kind.
// The committed corpus under testdata/fuzz/FuzzDecodeRequest mirrors
// them (regenerate with SERVICE_REGEN_CORPUS=1).
func fuzzSeeds() [][]byte {
	full := Request{
		ID: 42, Problem: "mst/randomized", Graph: "sensor", N: 64, M: 128,
		Rows: 8, Radius: 0.25, Seed: -7, Transport: "tcp",
		TraceCap: 1 << 16, Deadline: 3 * time.Second, WantTrace: true,
	}
	zero := Request{}
	nan := Request{ID: 1, Problem: "mis", Graph: "sensor", N: 8, Radius: math.NaN()}
	enc := func(req Request) []byte {
		body, err := transport.EncodeMessage(nil, req)
		if err != nil {
			panic(err)
		}
		return body
	}
	fullBody := enc(full)
	seeds := [][]byte{
		fullBody,
		enc(zero),
		enc(nan),
		fullBody[:1],               // kind byte only
		fullBody[:len(fullBody)/2], // truncated mid-body
		append(fullBody[:len(fullBody):len(fullBody)], 0), // trailing byte
		{},                       // empty body
		{0xff, 0xff, 0xff, 0xff}, // unregistered kind, garbage
		{80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // request kind, absurd first varint
		{80, 2, 0xfe, 0xff, 0xff, 0xff, 0x0f},                            // string length over remaining bytes
	}
	if respBody, err := transport.EncodeMessage(nil, Response{ID: 3, Status: StatusOK}); err == nil {
		seeds = append(seeds, respBody) // wrong kind for DecodeRequest
	}
	return seeds
}

// FuzzDecodeRequest hardens the request decoder the same way
// trace.FuzzReadJSONL hardens the trace reader: arbitrary bytes must
// never panic or over-allocate, and whatever decodes must be stable —
// re-encoding the decoded request and decoding again must reproduce
// the same canonical bytes. The framed path (ReadRequest) is driven
// over the same input with a length prefix attached, so truncated and
// oversized frames exercise the cap-before-allocate guard.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(body)
		if err == nil {
			// Canonical re-encoding must be a fixed point (byte
			// comparison sidesteps NaN != NaN on Radius).
			enc, err := transport.EncodeMessage(nil, req)
			if err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			req2, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("canonical encoding does not decode: %v", err)
			}
			enc2, err := transport.EncodeMessage(nil, req2)
			if err != nil {
				t.Fatalf("re-decoded request does not re-encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("canonical encoding is not a fixed point:\n%x\n%x", enc, enc2)
			}
		}

		// The framed reader over the same body: must agree with the
		// body decoder and must never read past the declared length.
		framed, err := AppendRequest(nil, Request{ID: 1, Problem: "mis", Graph: "ring", N: 4})
		if err != nil {
			t.Fatal(err)
		}
		framed = append(framed, body...) // trailing garbage after a valid frame
		br := bufio.NewReader(bytes.NewReader(framed))
		if _, err := ReadRequest(br); err != nil {
			t.Fatalf("valid frame rejected with trailing garbage present: %v", err)
		}
	})
}

// TestRegenFuzzCorpus rewrites the committed seed corpus from
// fuzzSeeds when SERVICE_REGEN_CORPUS=1; otherwise it verifies the
// corpus is present and in the `go test fuzz v1` format, so the seeds
// and the committed files cannot drift silently.
func TestRegenFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeRequest")
	if os.Getenv("SERVICE_REGEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range fuzzSeeds() {
			name := filepath.Join(dir, fmt.Sprintf("seed_%02d", i))
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with SERVICE_REGEN_CORPUS=1 to generate): %v", err)
	}
	if len(entries) < len(fuzzSeeds()) {
		t.Fatalf("corpus has %d files, seeds define %d (regenerate with SERVICE_REGEN_CORPUS=1)",
			len(entries), len(fuzzSeeds()))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("go test fuzz v1\n")) {
			t.Errorf("%s is not in go test fuzz v1 format", e.Name())
		}
	}
}
