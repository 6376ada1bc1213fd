package revmax_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	revmax "repro"
)

// TestReadmeAlgorithmList: the "Registered algorithms" table in
// README.md names exactly the algorithms revmax.List() returns, and
// every documented alias resolves to the row's canonical name. CI runs
// this test by name, so the docs cannot drift from the registry.
func TestReadmeAlgorithmList(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "### Registered algorithms")
	if start < 0 {
		t.Fatal("README.md is missing the \"### Registered algorithms\" section")
	}
	section := text[start:]
	if end := strings.Index(section[1:], "\n#"); end >= 0 {
		section = section[:end+1]
	}

	// Table rows look like: | `name` | `Alias` | description |
	rowRE := regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\| ([^|]+) \\|")
	var documented []string
	aliases := make(map[string]string)
	for _, m := range rowRE.FindAllStringSubmatch(section, -1) {
		name := m[1]
		documented = append(documented, name)
		if a := strings.Trim(strings.TrimSpace(m[2]), "`"); a != "" && a != "—" {
			aliases[a] = name
		}
	}
	sort.Strings(documented)

	registered := revmax.List()
	if strings.Join(documented, ",") != strings.Join(registered, ",") {
		t.Fatalf("README algorithm table does not match revmax.List():\n  documented: %v\n  registered: %v",
			documented, registered)
	}
	for alias, canonical := range aliases {
		a, err := revmax.Lookup(alias)
		if err != nil {
			t.Errorf("README documents alias %q, which does not resolve: %v", alias, err)
			continue
		}
		if a.Name() != canonical {
			t.Errorf("README alias %q resolves to %q, table says %q", alias, a.Name(), canonical)
		}
	}
}

// internalPackages lists the directories under internal/ that hold at
// least one non-test .go file.
func internalPackages(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	seen := make(map[string]bool)
	for _, f := range files {
		dir := filepath.ToSlash(filepath.Dir(f))
		if !strings.HasSuffix(f, "_test.go") && !seen[dir] {
			seen[dir] = true
			pkgs = append(pkgs, dir)
		}
	}
	return pkgs
}

// TestReadmePackageMap: every internal/<pkg> directory has a row in
// the README's "## Package map" table, and every internal/, cmd/ and
// examples/ path the README names anywhere exists on disk.
func TestReadmePackageMap(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "## Package map")
	if start < 0 {
		t.Fatal("README.md is missing the \"## Package map\" section")
	}
	section := text[start:]
	if end := strings.Index(section[1:], "\n#"); end >= 0 {
		section = section[:end+1]
	}
	for _, pkg := range internalPackages(t) {
		if !strings.Contains(section, "`"+pkg+"`") {
			t.Errorf("README package map has no row for %s", pkg)
		}
	}
	pathRE := regexp.MustCompile(`\b(?:internal|cmd|examples)/[a-z0-9_]+`)
	for _, path := range pathRE.FindAllString(text, -1) {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("README names %s, which does not exist", path)
		}
	}
}

// TestEveryInternalPackageIsReachable: a package under internal/
// survives only if a cmd/ or bench/ main imports it, directly or not.
// One reached only by its own tests, an example or a facade entry is
// dead weight every refactor must keep compiling — delete it instead.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/...", "./bench").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	reached := make(map[string]bool)
	for _, line := range strings.Fields(string(out)) {
		reached[line] = true
	}
	for _, pkg := range internalPackages(t) {
		if !reached["repro/"+pkg] {
			t.Errorf("%s is not imported by any cmd/ or bench/ main (go list -deps ./cmd/... ./bench)", pkg)
		}
	}
}
