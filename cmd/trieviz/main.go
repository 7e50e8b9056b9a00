// Command trieviz renders binary tries as ASCII art: the interpreted bits
// of every node plus the latest-list state per key. It regenerates the
// paper's structural figures:
//
//	trieviz -fig 1    # Figure 1: sequential trie for S={0,2}, u=4
//	trieviz -fig 5    # Figure 5: lock-free trie representing S={0,1,3}
//	trieviz -u 16 -keys 3,7,12
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/seqtrie"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		fig  = flag.Int("fig", 0, "paper figure to reproduce (1 or 5)")
		u    = flag.Int64("u", 16, "universe size")
		keys = flag.String("keys", "", "comma-separated keys to insert")
	)
	flag.Parse()
	var err error
	switch *fig {
	case 1:
		err = renderSequential(4, []int64{0, 2})
	case 5:
		err = renderLockFree(4, []int64{0, 1, 3})
	case 0:
		var ks []int64
		ks, err = parseKeys(*keys)
		if err == nil {
			err = renderLockFree(*u, ks)
		}
	default:
		err = fmt.Errorf("unknown figure %d (supported: 1, 5)", *fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trieviz:", err)
		return 1
	}
	return 0
}

func parseKeys(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		k, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key %q: %w", p, err)
		}
		out = append(out, k)
	}
	return out, nil
}

// checkKeys validates every key against the PADDED universe (the trie
// rounds u up to a power of two), so a bad -keys value is a clean error
// instead of a render-time panic.
func checkKeys(keys []int64, padded int64) error {
	for _, k := range keys {
		if k < 0 || k >= padded {
			return fmt.Errorf("key %d outside universe [0, %d)", k, padded)
		}
	}
	return nil
}

func renderSequential(u int64, keys []int64) error {
	tr, err := seqtrie.New(u)
	if err != nil {
		return err
	}
	if err := checkKeys(keys, tr.U()); err != nil {
		return err
	}
	for _, k := range keys {
		tr.Insert(k)
	}
	fmt.Printf("sequential binary trie, u=%d, S=%v (paper Figure 1)\n\n", tr.U(), keys)
	printLevels(tr.B(), func(i int64) string { return strconv.Itoa(int(tr.Bit(i))) })
	return nil
}

func renderLockFree(u int64, keys []int64) error {
	tr, err := core.New(u)
	if err != nil {
		return err
	}
	if err := checkKeys(keys, tr.U()); err != nil {
		return err
	}
	for _, k := range keys {
		tr.Insert(k)
	}
	fmt.Printf("lock-free binary trie, u=%d, S=%v (paper Figure 5 layout)\n\n", tr.U(), keys)
	bits := tr.Bits()
	printLevels(tr.B(), func(i int64) string {
		return strconv.Itoa(bits.InterpretedBit(i))
	})
	fmt.Println("\nlatest lists (first activated node per key):")
	for k := int64(0); k < tr.U(); k++ {
		state := "DEL (never inserted)"
		if tr.Search(k) {
			state = "INS"
		}
		fmt.Printf("  latest[%d] -> %s\n", k, state)
	}
	fmt.Printf("\nannouncements: U-ALL=%d P-ALL=%d (quiescent: both 0)\n",
		tr.AnnouncedUpdates(), tr.AnnouncedPredecessors())
	return nil
}

// printLevels renders a heap-indexed perfect binary tree level by level,
// centering each node over its subtree's leaves.
func printLevels(b int, cell func(i int64) string) {
	size := int64(1) << uint(b)
	const leafWidth = 4
	for depth := 0; depth <= b; depth++ {
		count := int64(1) << uint(depth)
		span := leafWidth * int(size/count)
		line := ""
		for j := int64(0); j < count; j++ {
			idx := count + j
			s := cell(idx)
			pad := (span - len(s)) / 2
			line += strings.Repeat(" ", pad) + s + strings.Repeat(" ", span-pad-len(s))
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}
