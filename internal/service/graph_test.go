package service

import "testing"

func TestBuildGraphKinds(t *testing.T) {
	cases := []struct {
		kind  string
		n     int
		wantN int
	}{
		{"random", 20, 20},
		{"ring", 12, 12},
		{"path", 9, 9},
		{"grid", 16, 16},
		{"complete", 7, 7},
		{"sensor", 25, 25},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			g, err := BuildGraph(tc.kind, tc.n, 0, 0, 0.3, 5)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if g.N() != tc.wantN {
				t.Errorf("n = %d, want %d", g.N(), tc.wantN)
			}
		})
	}
	// Unbuildable topologies are errors, never generator panics.
	for _, bad := range []struct {
		kind    string
		n, rows int
	}{
		{"nope", 10, 0},
		{"ring", 2, 0},
		{"grid", 4, 9},
		{"path", 0, 0},
	} {
		if _, err := BuildGraph(bad.kind, bad.n, 0, bad.rows, 0.3, 5); err == nil {
			t.Errorf("BuildGraph(%q, n=%d, rows=%d): want error", bad.kind, bad.n, bad.rows)
		}
	}
}

func TestGridDimensions(t *testing.T) {
	// grid with non-square n: rows*cols >= n with default rows.
	g, err := BuildGraph("grid", 10, 0, 0, 0, 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.N() < 10 {
		t.Errorf("grid n = %d, want >= 10", g.N())
	}
}

func TestIntSqrt(t *testing.T) {
	for n, want := range map[int]int{1: 1, 4: 2, 10: 4, 16: 4, 17: 5} {
		if got := intSqrt(n); got != want {
			t.Errorf("intSqrt(%d) = %d, want %d", n, got, want)
		}
	}
}
