package harness

import (
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/reclaim"
	"repro/internal/sets"
	"repro/internal/workload"
)

// Scale selects experiment sizing. Quick keeps unit-test and default bench
// runtimes small; Paper approaches the paper's setup (1-64 simulated
// cores). Absolute op counts are far below Graphite runs in either case —
// the simulator is functionally concurrent, so the per-op cost model, not
// run length, determines the reported rates.
type Scale struct {
	Threads      []int
	OpsPerThread int
	Trials       int
}

// QuickScale is small enough for CI.
func QuickScale() Scale {
	return Scale{Threads: []int{1, 2, 4, 8}, OpsPerThread: 300, Trials: 1}
}

// PaperScale sweeps the paper's 1-64 cores and averages over trials.
func PaperScale() Scale {
	return Scale{Threads: []int{1, 2, 4, 8, 16, 32, 64}, OpsPerThread: 600, Trials: 3}
}

// variant is the catalogue set named set, under the name a figure gives it.
func variant(name, set string) SetVariant {
	e := sets.Must(set)
	return SetVariant{Name: name, Build: e.New}
}

// ListVariants returns the three list implementations of Figures 2/4/5.
func ListVariants() []SetVariant {
	return []SetVariant{variant("harris", "harris-list"), variant("vas", "vas-list"), variant("hoh", "hoh-list")}
}

// TreeVariants returns the two (a,b)-tree implementations of Figures 6/7.
func TreeVariants() []SetVariant {
	return []SetVariant{variant("llxscx", "llx-tree"), variant("hoh-tag", "hoh-tree")}
}

// BSTVariants returns the external BST implementations (extension
// experiment: the paper names BSTs among tagging's applications).
func BSTVariants() []SetVariant {
	return []SetVariant{variant("llxscx", "llx-bst"), variant("hoh-tag", "hoh-bst")}
}

// ChromaticVariants returns the chromatic tree implementations (the other
// balanced tree the paper names).
func ChromaticVariants() []SetVariant {
	return []SetVariant{variant("llxscx", "llx-chromatic"), variant("hoh-tag", "hoh-chromatic")}
}

// SkipVariants returns the skip list implementations (extension
// experiment).
func SkipVariants() []SetVariant {
	return []SetVariant{variant("cas", "skiplist-cas"), variant("vas", "skiplist-vas")}
}

// listExperiment builds a list experiment with the paper's methodology:
// key range double the initial size, prefilled to half.
func listExperiment(name, title, figure string, mix workload.Mix, sc Scale) *SetExperiment {
	return &SetExperiment{
		Name: name, Title: title, Figure: figure,
		Threads: sc.Threads, Trials: sc.Trials,
		KeyRange:     512,
		OpsPerThread: sc.OpsPerThread,
		Mix:          mix,
		Seed:         42,
		Variants:     ListVariants(),
		MemBytes:     64 << 20,
	}
}

func treeExperiment(name, title, figure string, mix workload.Mix, sc Scale) *SetExperiment {
	return &SetExperiment{
		Name: name, Title: title, Figure: figure,
		Threads: sc.Threads, Trials: sc.Trials,
		KeyRange:     8192,
		OpsPerThread: sc.OpsPerThread * 2, // tree ops are O(log n): afford more
		Mix:          mix,
		Seed:         42,
		Variants:     TreeVariants(),
		MemBytes:     256 << 20,
	}
}

// Fig2 reproduces Figure 2: linked-list throughput vs threads at 35%
// inserts / 35% deletes (the throughput panel of Figure 4).
func Fig2(sc Scale) *SetExperiment {
	return listExperiment("fig2", "Linked list, 35% ins / 35% del (throughput)", "Figure 2", workload.Update3535, sc)
}

// Fig4 reproduces Figure 4: linked-list throughput, miss rate and energy
// at 35/35.
func Fig4(sc Scale) *SetExperiment {
	return listExperiment("fig4", "Linked list, 35% ins / 35% del", "Figure 4", workload.Update3535, sc)
}

// Fig5 reproduces Figure 5: linked list at 15% inserts / 15% deletes.
func Fig5(sc Scale) *SetExperiment {
	return listExperiment("fig5", "Linked list, 15% ins / 15% del", "Figure 5", workload.Update1515, sc)
}

// Fig6 reproduces Figure 6: (a,b)-tree at 35/35, LLX/SCX vs HoH tagging.
func Fig6(sc Scale) *SetExperiment {
	return treeExperiment("fig6", "(a,b)-tree, 35% ins / 35% del", "Figure 6", workload.Update3535, sc)
}

// Fig7 reproduces Figure 7: (a,b)-tree at 15/15.
func Fig7(sc Scale) *SetExperiment {
	return treeExperiment("fig7", "(a,b)-tree, 15% ins / 15% del", "Figure 7", workload.Update1515, sc)
}

// BSTExperiment is an extension experiment: the unbalanced external BST,
// LLX/SCX vs HoH tagging, at 35/35.
func BSTExperiment(sc Scale) *SetExperiment {
	return &SetExperiment{
		Name: "bst", Title: "External BST, 35% ins / 35% del (extension)", Figure: "(extension)",
		Threads: sc.Threads, Trials: sc.Trials,
		KeyRange:     8192,
		OpsPerThread: sc.OpsPerThread * 2,
		Mix:          workload.Update3535,
		Seed:         42,
		Variants:     BSTVariants(),
		MemBytes:     256 << 20,
	}
}

// ChromaticExperiment compares the chromatic tree variants at 35/35 (the
// paper verified its generic transformation on the chromatic tree; it
// reports no separate figure).
func ChromaticExperiment(sc Scale) *SetExperiment {
	return &SetExperiment{
		Name: "chromatic", Title: "Chromatic tree, 35% ins / 35% del (extension)", Figure: "(extension)",
		Threads: sc.Threads, Trials: sc.Trials,
		KeyRange:     8192,
		OpsPerThread: sc.OpsPerThread * 2,
		Mix:          workload.Update3535,
		Seed:         42,
		Variants:     ChromaticVariants(),
		MemBytes:     256 << 20,
	}
}

// StmSetExperiment compares general-purpose STM ordered sets (NOrec and
// tagged NOrec over a transactional red-black tree) against the
// purpose-built HoH-tagged (a,b)-tree — the usability/performance
// trade-off the paper's conclusions discuss.
func StmSetExperiment(sc Scale) *SetExperiment {
	return &SetExperiment{
		Name: "stmset", Title: "STM RB-set vs HoH (a,b)-tree, 35% ins / 35% del (extension)", Figure: "(extension)",
		Threads: sc.Threads, Trials: sc.Trials,
		KeyRange:     2048,
		OpsPerThread: sc.OpsPerThread,
		Mix:          workload.Update3535,
		Seed:         42,
		Variants:     []SetVariant{variant("norec-set", "norec-set"), variant("tagged-set", "tagged-set"), variant("hoh-tree", "hoh-tree")},
		MemBytes:     256 << 20,
		Config: func(cores int) machine.Config {
			cfg := machine.DefaultConfig(cores)
			cfg.MemBytes = 256 << 20
			cfg.MaxTags = 128 // STM read sets span many lines
			return cfg
		},
	}
}

// reclaimSkipVariant builds the VAS skip list with a reclamation pool of
// the given policy attached (domain in checked mode, so any discipline
// violation fails loudly instead of corrupting the run).
func reclaimSkipVariant(name string, policy reclaim.Policy) SetVariant {
	e := sets.Must("skiplist-vas")
	return SetVariant{
		Name: name,
		BuildReclaimed: func(m core.Memory) (intset.Set, *reclaim.Pool) {
			d := reclaim.NewDomainFor(m)
			d.SetChecked(true)
			if sr, ok := m.(reclaim.Attacher); ok {
				sr.SetReclaim(d)
			}
			s := e.New(m)
			return s, e.Pool(s, d, policy)
		},
	}
}

// ReclaimExperiment compares memory-reclamation policies on the VAS skip
// list: no reclamation (leak every unlinked node), the tag-conditioned
// immediate policy, and the epoch baseline. Beyond throughput/miss-rate,
// the reclaimed variants report retire-to-free latency and footprint
// (peak live lines, free-list size) — the metrics that separate the two
// policies.
func ReclaimExperiment(sc Scale) *SetExperiment {
	return &SetExperiment{
		Name: "reclaim", Title: "Skip list reclamation: none vs immediate vs epoch (extension)", Figure: "(extension)",
		Threads: sc.Threads, Trials: sc.Trials,
		KeyRange:     4096,
		OpsPerThread: sc.OpsPerThread * 2,
		Mix:          workload.Update3535,
		Seed:         42,
		Variants: []SetVariant{
			variant("none", "skiplist-vas"),
			reclaimSkipVariant("immediate", reclaim.PolicyImmediate),
			reclaimSkipVariant("epoch", reclaim.PolicyEpoch),
		},
		MemBytes: 256 << 20,
	}
}

// SkipExperiment is the extension experiment: skip list CAS vs VAS at
// 35/35 (the paper claims applicability but reports no skip-list figure).
func SkipExperiment(sc Scale) *SetExperiment {
	return &SetExperiment{
		Name: "skip", Title: "Skip list, 35% ins / 35% del (extension)", Figure: "(extension)",
		Threads: sc.Threads, Trials: sc.Trials,
		KeyRange:     4096,
		OpsPerThread: sc.OpsPerThread * 2,
		Mix:          workload.Update3535,
		Seed:         42,
		Variants:     SkipVariants(),
		MemBytes:     256 << 20,
	}
}
