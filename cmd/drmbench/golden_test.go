package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites testdata/ from the current build. Run `go test
// ./cmd/drmbench -run TestFiguresGolden -update-golden` only when a
// figure's rows are meant to change.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden figure outputs in testdata/")

// TestFiguresGolden pins the figures whose rows hold no wall-clock time
// (6: groups, 10: storage, 11: policy loss) byte for byte, in table and
// CSV forms, for two seeds.
func TestFiguresGolden(t *testing.T) {
	for _, fig := range []string{"6", "10", "11"} {
		for _, seed := range []string{"1", "2"} {
			for _, format := range []string{"table", "csv"} {
				name := "fig" + fig + "_seed" + seed + "." + format
				t.Run(name, func(t *testing.T) {
					var out bytes.Buffer
					args := []string{"-fig", fig, "-max", "16", "-seed", seed, "-format", format}
					if err := run(args, &out); err != nil {
						t.Fatal(err)
					}
					path := filepath.Join("testdata", name)
					if *updateGolden {
						if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out.Bytes(), want) {
						t.Errorf("drmbench %v differs from %s:\ngot:\n%s\nwant:\n%s", args, path, out.Bytes(), want)
					}
				})
			}
		}
	}
}
