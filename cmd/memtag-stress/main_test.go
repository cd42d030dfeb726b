package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/reclaim"
	"repro/internal/schedexplore"
	"repro/internal/sets"
)

// TestEveryStructEveryRound drives every catalogue entry through the stress
// and -linearize rounds on both backends and through -explore on the
// machine, at tiny sizes; entries with retire hooks also run their stress
// and -linearize rounds under -reclaim immediate.
func TestEveryStructEveryRound(t *testing.T) {
	ops := 8
	if testing.Short() {
		ops = 4
	}
	const threads, keyRange, seed = 2, 8, 1
	for _, e := range sets.All() {
		t.Run(e.Name, func(t *testing.T) {
			type round struct {
				name string
				run  func() error
			}
			var rounds []round
			for _, bk := range []string{"vtags", "machine"} {
				rounds = append(rounds,
					round{"stress/" + bk, func() error { return stressOne(e, bk, threads, ops, keyRange, seed) }},
					round{"linearize/" + bk, func() error { return linearizeOne(e, bk, threads, ops, keyRange, seed) }})
			}
			rounds = append(rounds, round{"explore/machine", func() error {
				return exploreOne(e, threads, ops, keyRange, seed, schedexplore.RandomWalk, 1)
			}})
			for _, r := range rounds {
				if err := r.run(); err != nil {
					t.Errorf("%s: %v", r.name, err)
				}
			}
			if e.Pool == nil {
				return
			}
			reclaimPolicy = reclaim.PolicyImmediate
			defer func() { reclaimPolicy = policyOff }()
			if err := stressOne(e, "vtags", threads, ops, keyRange, seed); err != nil {
				t.Errorf("stress/vtags -reclaim immediate: %v", err)
			}
			if err := linearizeOne(e, "machine", threads, ops, keyRange, seed); err != nil {
				t.Errorf("linearize/machine -reclaim immediate: %v", err)
			}
		})
	}
}

// TestWorkflowStructsExist requires every -structs name a CI workflow
// passes to be in the catalogue (an unknown name makes the command exit 2).
func TestWorkflowStructsExist(t *testing.T) {
	files, err := filepath.Glob("../../.github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files found (%v)", err)
	}
	known := map[string]bool{}
	for _, e := range sets.All() {
		known[e.Name] = true
	}
	flagRE := regexp.MustCompile(`-structs[ =]+([A-Za-z0-9,-]+)`)
	seen := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagRE.FindAllStringSubmatch(string(b), -1) {
			for _, name := range strings.Split(m[1], ",") {
				seen++
				if !known[name] {
					t.Errorf("%s: -structs %s is not in the catalogue", filepath.Base(f), name)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no -structs flag found in the workflows")
	}
}
