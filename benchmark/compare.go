package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResults(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compare prints, for every workload and end-to-end metric of the
// baseline a, both medians, their ratio, the bound and a verdict, one
// row each, and reports whether b is acceptable: no metric worse than
// its bound allows, no workload missing, no higher fail_share. A metric
// whose run-to-run spread on either side is wider than its bound is
// unresolved, not ok: the sets cannot tell a regression of that size
// from noise.
func compare(a, b *resultSet, out io.Writer) bool {
	pass := true
	fmt.Fprintf(out, "%-17s %-12s %12s %12s %7s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	byName := make(map[string]*workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(out, "%-17s missing from b\n", wa.Name)
			pass = false
			continue
		}
		verdict := "ok"
		if wb.FailShare > wa.FailShare {
			verdict, pass = "worse", false
		}
		fmt.Fprintf(out, "%-17s %-12s %12.4f %12.4f %7s %6s  %s\n", wa.Name, "fail_share", wa.FailShare, wb.FailShare, "", "any", verdict)
		names := make([]string, 0, len(wa.EndToEnd))
		for name := range wa.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma, mb := wa.EndToEnd[name], wb.EndToEnd[name]
			r := ratio(mb.Value, ma.Value)
			verdict := "ok"
			switch {
			case mb.N == 0 || r > 1+ma.Bound:
				verdict, pass = "worse", false
			case ma.spread() > ma.Bound || mb.spread() > ma.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-17s %-12s %12.4f %12.4f %7.3f %5.0f%%  %s\n", wa.Name, name, ma.Value, mb.Value, r, 100*ma.Bound, verdict)
		}
	}
	return pass
}
