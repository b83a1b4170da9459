package main

import (
	"flag"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dynsample/internal/parallel"
)

// TestREADMEListsEveryFlag holds README.md's aqpcli and aqpcli ingest tables
// to the flags: every flag has a row with its default, and every row is a
// flag. A default is written in backticks, an empty one as "none", and
// -workers' as "number of CPUs" (parallel.DefaultWorkers). cmd/aqpd's test
// of the same name reads aqpd's table the same way.
func TestREADMEListsEveryFlag(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	for heading, fs := range map[string]*flag.FlagSet{
		"### `aqpcli`":        flag.CommandLine,
		"### `aqpcli ingest`": ingestFlags,
	} {
		i := slices.Index(lines, heading)
		if i < 0 {
			t.Fatalf("README.md has no line %q", heading)
		}
		doc := map[string]string{} // flag -> default cell
		for _, row := range lines[i+1:] {
			if strings.HasPrefix(row, "#") {
				break
			}
			if c := strings.Split(row, "|"); len(c) > 3 && strings.HasPrefix(strings.TrimSpace(c[1]), "`-") {
				name := strings.Fields(strings.Trim(strings.TrimSpace(c[1]), "`"))[0]
				doc[strings.TrimPrefix(name, "-")] = strings.TrimSpace(c[2])
			}
		}
		fs.VisitAll(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "test.") {
				return // the testing package's own
			}
			want := "`" + f.DefValue + "`"
			switch {
			case f.Name == "workers" && f.DefValue == strconv.Itoa(parallel.DefaultWorkers()):
				want = "number of CPUs"
			case f.DefValue == "":
				want = "none"
			}
			got, ok := doc[f.Name]
			delete(doc, f.Name)
			switch {
			case !ok:
				t.Errorf("-%s has no row under %s in README.md", f.Name, heading)
			case got != want:
				t.Errorf("README.md gives -%s the default %s; it is %s", f.Name, got, want)
			}
		})
		for name := range doc {
			t.Errorf("README.md lists -%s under %s, which is not a flag", name, heading)
		}
	}
}
