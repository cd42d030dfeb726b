package harness

import "testing"

// TestClaimFig8TaggedNOrecWins checks the Figure 8 row of EXPERIMENTS.md's
// headline table on a reduced, seeded Vacation run: "tagged NOrec up to 50%
// faster". The repo measures a larger margin than the paper's, so what is
// asserted is the direction at every core count, not the size. The run keeps
// Fig8(true)'s mix and transaction count but uses 4096 relations, a quarter
// of the paper's tables: at the quick scale's 1024 the two STMs tie within
// 10 % at 4 and 8 cores, and the margin grows with the tables.
func TestClaimFig8TaggedNOrecWins(t *testing.T) {
	if testing.Short() {
		t.Skip("a 2 s simulation; the claim runs in the full suite")
	}
	e := Fig8(true)
	e.Threads = []int{1, 4, 8}
	e.Params.Relations = 4096
	ktx := map[string]map[int]float64{}
	for _, p := range e.Run() {
		if ktx[p.Variant] == nil {
			ktx[p.Variant] = map[int]float64{}
		}
		ktx[p.Variant][p.Threads] = p.ThroughputKtx
	}
	for _, n := range e.Threads {
		tagged, norec := ktx["tagged"][n], ktx["norec"][n]
		if norec <= 0 || tagged <= norec {
			t.Errorf("%d cores: tagged NOrec %.0f ktx/s, NOrec %.0f ktx/s; the paper has tagged NOrec up to 50%% faster", n, tagged, norec)
		}
		t.Logf("%d cores: tagged/NOrec = %.2f", n, tagged/norec)
	}
}
