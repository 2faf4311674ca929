package sqo_test

import (
	"sync"
	"testing"

	"sqo"
	"sqo/internal/core"
)

// TestConcurrentOptimize: one Optimizer (with a CatalogSource and a shared
// cost model) is documented safe for concurrent use; hammer it from many
// goroutines and check the outputs stay identical. Run with -race to verify
// the absence of data races.
func TestConcurrentOptimize(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
	opt := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: cat}, sqo.Options{Cost: model})
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 13})
	queries, err := gen.Workload(8)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Optimized.Signature()
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				q := queries[(w+round)%len(queries)]
				res, err := opt.Optimize(q)
				if err != nil {
					errs <- err
					return
				}
				if res.Optimized.Signature() != want[(w+round)%len(queries)] {
					errs <- errMismatch{}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "concurrent optimization produced a different result" }

// TestConcurrentExecute: executors are read-only over the database and safe
// to share.
func TestConcurrentExecute(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	exec := sqo.NewExecutor(db)
	q := sqo.NewQuery("cargo", "vehicle").
		AddProject("cargo", "desc").
		AddSelect(sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))).
		AddRelationship("collects")
	base, err := exec.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(base.Rows)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := exec.Execute(q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != wantRows {
					errs <- errMismatch{}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
