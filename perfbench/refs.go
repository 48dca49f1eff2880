package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"raxml/internal/core"
)

// refs.json holds the recorded fa-ranks results: for each workload seed
// and dataset, the best lnL and best-tree digest of the R=2 analysis.
// Regenerate it with -record-refs after a change that is meant to alter
// results, and only then.
//
//go:embed refs.json
var refsJSON []byte

// refTable is refs.json. Problem pins everything the results depend on
// besides the seed and the dataset; a table for another problem is
// ignored. (Dataset k of a seed is the same alignment whatever
// faDatasets is, so the dataset count is not part of the problem.)
type refTable struct {
	Problem string              `json:"problem"`
	Entries map[string]refEntry `json:"entries"` // "<seed>/<dataset>"
}

// refEntry is one recorded result: the best lnL and the SHA-256 of the
// best tree's Newick text.
type refEntry struct {
	LnL    float64 `json:"lnl"`
	Digest string  `json:"newick_sha256"`
}

func faProblem() string {
	return fmt.Sprintf("fa %dx%d GTRCAT N=%d R=%d", faTaxa, faChars, faBootstraps, faRanks.ranks)
}

func refKey(seed int64, k int) string { return fmt.Sprintf("%d/%d", seed, k) }

func loadRefs(data []byte) (refTable, error) {
	var t refTable
	if err := json.Unmarshal(data, &t); err != nil {
		return t, fmt.Errorf("refs.json: %w", err)
	}
	return t, nil
}

// recordedReference returns the recorded fa-ranks result for (seed,
// dataset k), if refs.json has one for the current problem.
func recordedReference(seed int64, k int) (refEntry, bool) {
	t, err := loadRefs(refsJSON)
	if err != nil || t.Problem != faProblem() {
		return refEntry{}, false
	}
	e, ok := t.Entries[refKey(seed, k)]
	return e, ok
}

// recordReferences runs the fa-ranks analysis of every dataset of every
// seed in spec ("FROM:TO", inclusive) and writes the table to args[0].
func recordReferences(spec string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("-record-refs FROM:TO takes the output path as its one argument")
	}
	from, to, ok := strings.Cut(spec, ":")
	lo, err1 := strconv.ParseInt(from, 10, 64)
	hi, err2 := strconv.ParseInt(to, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("bad -record-refs range %q (want FROM:TO)", spec)
	}
	t := refTable{Problem: faProblem(), Entries: map[string]refEntry{}}
	for seed := lo; seed <= hi; seed++ {
		ins, err := faInputs(seed)
		if err != nil {
			return err
		}
		for k, in := range ins {
			res, err := core.Run(in.pat, faOptions(seed, faRanks))
			if err != nil {
				return err
			}
			o, err := outcomeOf(res)
			if err != nil {
				return err
			}
			t.Entries[refKey(seed, k)] = refEntry{LnL: o.lnl, Digest: o.digest()}
		}
		fmt.Fprintf(os.Stderr, "recorded seed %d\n", seed)
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(args[0], append(b, '\n'), 0o644)
}
