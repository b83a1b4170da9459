package obs_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	// Every package that registers a metric family on obs.Default.
	_ "dynsample/internal/catalog"
	_ "dynsample/internal/cluster"
	_ "dynsample/internal/core"
	_ "dynsample/internal/engine"
	_ "dynsample/internal/ingest"
	_ "dynsample/internal/server"

	"dynsample/internal/obs"
)

var backticked = regexp.MustCompile("`([^`]*)`")

// TestArchitectureListsEveryMetric holds ARCHITECTURE.md §8's table to the
// registry: every family the server's packages register has a row with its
// labels, in order, and every row names a registered family.
func TestArchitectureListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	arch := string(b)
	start := strings.Index(arch, "\n## 8. ")
	if start < 0 {
		t.Fatal("ARCHITECTURE.md has no ## 8. section")
	}
	sec := arch[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	doc := map[string]string{} // family -> labels, comma-separated
	for _, row := range strings.Split(sec, "\n") {
		c := strings.Split(strings.TrimSpace(row), "|")
		if len(c) < 4 || !strings.HasPrefix(strings.TrimSpace(c[1]), "`aqp_") {
			continue
		}
		var labels []string
		for _, m := range backticked.FindAllStringSubmatch(c[2], -1) {
			labels = append(labels, m[1])
		}
		doc[strings.Trim(strings.TrimSpace(c[1]), "`")] = strings.Join(labels, ",")
	}
	fams := obs.Families(obs.Default())
	if len(fams) == 0 {
		t.Fatal("no metric family registered")
	}
	for name, labels := range fams {
		got, ok := doc[name]
		delete(doc, name)
		switch {
		case !ok:
			t.Errorf("%s{%s} is registered but has no row in ARCHITECTURE.md §8", name, strings.Join(labels, ","))
		case got != strings.Join(labels, ","):
			t.Errorf("ARCHITECTURE.md §8 gives %s the labels {%s}; it is registered with {%s}", name, got, strings.Join(labels, ","))
		}
	}
	for name := range doc {
		t.Errorf("ARCHITECTURE.md §8 lists %s, which nothing registers", name)
	}
}
