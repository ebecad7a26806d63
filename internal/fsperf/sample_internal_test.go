package fsperf

import (
	"testing"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
)

// TestCreateSamplesStartFromSameRoot: every create sample, the warm-up
// included, creates into a root holding the same number of entries,
// so a median does not report a sample timed against a larger
// directory.
func TestCreateSamplesStartFromSameRoot(t *testing.T) {
	const files = 6
	for _, kind := range []Kind{Tmpfs, Minix} {
		sides, err := bootSides(kind)
		if err != nil {
			t.Fatal(err)
		}
		defer closeSides(sides)
		setup, body := createOp(files)
		entries := map[core.Mode][]int{}
		counted := func(s *side) error {
			if err := setup(s); err != nil {
				return err
			}
			ents, err := s.V.Readdir(s.Th, s.SB, "/")
			entries[s.mode] = append(entries[s.mode], len(ents))
			return err
		}
		if _, err := sample(sides, files, counted, body); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for mode, seen := range entries {
			if len(seen) != 1+benchio.Samples {
				t.Fatalf("%s/%s: %d create samples, want %d", kind, mode, len(seen), 1+benchio.Samples)
			}
			for k, n := range seen {
				if n != seen[0] {
					t.Fatalf("%s/%s: sample %d started with %d root entries, sample 0 with %d (%v)",
						kind, mode, k, n, seen[0], seen)
				}
			}
		}
		for _, s := range sides {
			if err := s.unlinkCreated(files); err != nil {
				t.Fatalf("%s/%s: %v", kind, s.mode, err)
			}
			if ents, err := s.V.Readdir(s.Th, s.SB, "/"); err != nil || len(ents) != entries[s.mode][0] {
				t.Fatalf("%s/%s: %d root entries after cleanup (err %v), want %d",
					kind, s.mode, len(ents), err, entries[s.mode][0])
			}
		}
	}
}
