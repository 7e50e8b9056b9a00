package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// checkQueries is the number of seeded Predecessor queries the output
// check compares against the model.
const checkQueries = 10_000

// mismatchError is a served answer that disagrees with the model.
type mismatchError struct{ diffs []string }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("%d mismatches: %s", len(e.diffs), strings.Join(e.diffs, "; "))
}

func (e *mismatchError) add(format string, args ...any) {
	if len(e.diffs) < 10 {
		e.diffs = append(e.diffs, fmt.Sprintf(format, args...))
	}
}

// check compares the quiesced server with the model of the acknowledged
// updates: Range over the whole universe must return exactly the model's
// keys, and seeded Predecessor queries must return the model's answers.
// A failed request is an error; a wrong answer is a *mismatchError.
func check(ss *session, u, seed int64, n *counts) error {
	want := expected([]model{ss.conns[0].model, ss.conns[1].model}, u)
	var bad mismatchError
	i := len(want) - 1 // Range streams descending
	n.attempted.Add(1)
	err := ss.conns[0].cl.Range(0, u-1, func(k int64) bool {
		if i < 0 || want[i] != k {
			exp := int64(-1)
			if i >= 0 {
				exp = want[i]
			}
			bad.add("Range returned %d where the model has %d", k, exp)
			return false
		}
		i--
		return true
	})
	if err != nil {
		n.fail(err)
		return fmt.Errorf("output check Range: %w", err)
	}
	if len(bad.diffs) == 0 && i >= 0 {
		bad.add("Range ended with %d model keys unreturned, the largest %d", i+1, want[i])
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ys := make([]int64, checkQueries)
	for j := range ys {
		ys[j] = rng.Int63n(u)
	}
	const workers = 16
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := ss.conns[w%conns].cl
			for j := w; j < len(ys); j += workers {
				n.attempted.Add(1)
				got, err := cl.Predecessor(ys[j])
				if err != nil {
					n.fail(err)
					errs[w] = err
					return
				}
				if exp := predecessorOf(want, ys[j]); got != exp {
					mu.Lock()
					bad.add("Predecessor(%d) = %d, model %d", ys[j], got, exp)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("output check Predecessor: %w", err)
	}
	if len(bad.diffs) > 0 {
		return &bad
	}
	return nil
}
