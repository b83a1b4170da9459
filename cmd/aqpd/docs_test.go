package main

// The docs list facts whose one source is the code: the metric families in
// the registry, the flags, the error codes and the routes. These tests hold
// ARCHITECTURE.md §8, README.md's aqpd flag table and docs/API.md to them.

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dynsample/internal/cluster"
	"dynsample/internal/core"
	"dynsample/internal/obs"
	"dynsample/internal/parallel"
	"dynsample/internal/scenario"
	"dynsample/internal/server"
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cells splits a markdown table row into its trimmed cells.
func cells(row string) []string {
	c := strings.Split(strings.TrimSpace(row), "|")
	if len(c) < 3 {
		return nil
	}
	c = c[1 : len(c)-1]
	for i := range c {
		c[i] = strings.TrimSpace(c[i])
	}
	return c
}

var backticked = regexp.MustCompile("`([^`]*)`")

// TestArchitectureListsEveryMetric holds ARCHITECTURE.md §8's table to the
// registry: every family this binary registers has a row with its labels, in
// order, and every row names a registered family. This package imports every
// layer that registers one.
func TestArchitectureListsEveryMetric(t *testing.T) {
	arch := readDoc(t, "ARCHITECTURE.md")
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
		c := cells(row)
		if len(c) < 2 || !strings.HasPrefix(c[0], "`aqp_") {
			continue
		}
		var labels []string
		for _, m := range backticked.FindAllStringSubmatch(c[1], -1) {
			labels = append(labels, m[1])
		}
		doc[strings.Trim(c[0], "`")] = strings.Join(labels, ",")
	}
	fams := obs.Default().Families()
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

// TestREADMEListsEveryFlag holds README.md's aqpd table to the flags: every
// flag has a row with its default, and every row is a flag.
func TestREADMEListsEveryFlag(t *testing.T) {
	checkFlagTable(t, flag.CommandLine, "### `aqpd`")
}

// checkFlagTable compares fs with the README table under heading. A default
// is written in backticks, an empty one as "none", and -workers' as "number
// of CPUs" (parallel.DefaultWorkers).
func checkFlagTable(t *testing.T, fs *flag.FlagSet, heading string) {
	t.Helper()
	lines := strings.Split(readDoc(t, "README.md"), "\n")
	i := slices.Index(lines, heading)
	if i < 0 {
		t.Fatalf("README.md has no line %q", heading)
	}
	doc := map[string]string{} // flag -> default cell
	for _, row := range lines[i+1:] {
		if strings.HasPrefix(row, "#") {
			break
		}
		if c := cells(row); len(c) >= 2 && strings.HasPrefix(c[0], "`-") {
			doc[strings.TrimPrefix(strings.Fields(strings.Trim(c[0], "`"))[0], "-")] = c[1]
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

// TestAPIListsEveryErrorCode holds docs/API.md's error table to the Code*
// constants of the two tiers: each has a row, and each row is one of them.
func TestAPIListsEveryErrorCode(t *testing.T) {
	codes := map[string]string{} // value -> constant
	for _, dir := range []string{"server", "cluster"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "internal", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				for i, name := range spec.Names {
					if !strings.HasPrefix(name.Name, "Code") {
						continue
					}
					var v string
					if i < len(spec.Values) {
						if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							v, _ = strconv.Unquote(lit.Value)
						}
					}
					if v == "" {
						t.Errorf("%s: %s is not a string literal", path, name.Name)
						continue
					}
					codes[v] = name.Name
				}
				return false
			})
		}
	}
	if len(codes) == 0 {
		t.Fatal("found no Code* constant")
	}
	doc := map[string]bool{}
	for _, row := range strings.Split(readDoc(t, "docs/API.md"), "\n") {
		c := cells(row)
		if len(c) < 2 || !strings.HasPrefix(c[0], "`") {
			continue
		}
		if _, err := strconv.Atoi(c[1]); err == nil && len(c[1]) == 3 {
			doc[strings.Trim(c[0], "`")] = true
		}
	}
	for v, name := range codes {
		if !doc[v] {
			t.Errorf("%s (%q) has no row in docs/API.md's error table", name, v)
		}
		delete(doc, v)
	}
	for v := range doc {
		t.Errorf("docs/API.md's error table lists %q, which no Code* constant defines", v)
	}
}

var apiRoute = regexp.MustCompile(`\b(GET|POST|PUT|PATCH|DELETE) (/[\w/-]*)`)

// TestAPIRoutesAreServed sends every METHOD /path docs/API.md names to a
// single node in shard mode and to a coordinator over it: each route must get
// an answer other than not_found from one of them.
func TestAPIRoutesAreServed(t *testing.T) {
	db, err := scenario.Builtin("tpch", 2000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(db)
	if err := sys.AddStrategy(core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.1, Seed: 1, Workers: 1})); err != nil {
		t.Fatal(err)
	}
	node := server.New(sys, server.Config{Shards: 1, ShardID: 0}).Handler()
	shard := httptest.NewServer(node)
	defer shard.Close()
	co, err := cluster.New(cluster.Config{ShardAddrs: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	tiers := []http.Handler{node, co.Handler()}

	seen := map[string]bool{}
	for _, m := range apiRoute.FindAllStringSubmatch(readDoc(t, "docs/API.md"), -1) {
		method, path := m[1], m[2]
		if seen[method+" "+path] {
			continue
		}
		seen[method+" "+path] = true
		if !slices.ContainsFunc(tiers, func(h http.Handler) bool { return serves(h, method, path) }) {
			t.Errorf("docs/API.md documents %s %s, which every tier answers with %s", method, path, server.CodeNotFound)
		}
	}
	if len(seen) == 0 {
		t.Fatal("docs/API.md names no route")
	}
}

// serves reports whether h answers method path with anything but not_found.
func serves(h http.Handler, method, path string) bool {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
	var env server.ErrorResponse
	return json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != server.CodeNotFound
}
