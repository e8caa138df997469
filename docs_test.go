package seedb_test

import (
	"encoding/json"
	"fmt"
	"go/format"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/frontend"
)

// Documentation lint, run as ordinary tests so `go test ./...` (and
// the CI docs job) keeps README.md, ARCHITECTURE.md, and docs/ honest:
// every relative link must resolve to a real file, every ```go snippet
// must be gofmt-clean, and every command flag and HTTP route named
// must exist. (An external test package, so it can ask the frontend —
// which imports seedb — for its routes.)

// docFiles lists the markdown files under lint.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ARCHITECTURE.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("docs/ directory: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

var mdLinkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve checks every relative markdown link target
// exists on disk (anchors and external URLs are skipped).
func TestDocsLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		links := 0
		for _, m := range mdLinkRe.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // drop any anchor
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link target %q does not resolve (%v)", file, m[1], err)
			}
			links++
		}
		t.Logf("%s: %d relative links checked", file, links)
	}
}

var goFenceRe = regexp.MustCompile("(?s)```go\n(.*?)```")

// gofmtClean reports whether a fenced snippet is gofmt-clean. Doc
// snippets are rarely whole files, so three interpretations are
// tried: a complete file, file-level declarations, and a statement
// list (wrapped in a function, formatted, then unwrapped).
func gofmtClean(snippet string) error {
	tryFile := func(src, context string) (bool, error) {
		formatted, err := format.Source([]byte(src))
		if err != nil {
			return false, nil // does not parse under this interpretation
		}
		if string(formatted) != src {
			return true, fmt.Errorf("not gofmt-clean (as %s):\n--- have ---\n%s\n--- want ---\n%s", context, src, formatted)
		}
		return true, nil
	}
	if ok, err := tryFile(snippet, "file"); ok {
		return err
	}
	if ok, err := tryFile("package docs\n\n"+snippet, "declarations"); ok {
		return err
	}
	// Statement list: indent into a throwaway function, format, strip
	// the wrapper and the one level of indentation it added.
	var b strings.Builder
	b.WriteString("package docs\n\nfunc _() {\n")
	for line := range strings.Lines(snippet) {
		if strings.TrimSpace(line) != "" {
			b.WriteString("\t")
		}
		b.WriteString(line)
	}
	b.WriteString("}\n")
	formatted, err := format.Source([]byte(b.String()))
	if err != nil {
		return fmt.Errorf("snippet parses as neither a file, declarations, nor statements: %v", err)
	}
	body, ok := strings.CutPrefix(string(formatted), "package docs\n\nfunc _() {\n")
	if !ok {
		return fmt.Errorf("formatter restructured the statement wrapper:\n%s", formatted)
	}
	body, ok = strings.CutSuffix(body, "}\n")
	if !ok {
		return fmt.Errorf("formatter restructured the statement wrapper:\n%s", formatted)
	}
	var unwrapped strings.Builder
	for line := range strings.Lines(body) {
		unwrapped.WriteString(strings.TrimPrefix(line, "\t"))
	}
	if unwrapped.String() != snippet {
		return fmt.Errorf("not gofmt-clean (as statements):\n--- have ---\n%s\n--- want ---\n%s", snippet, unwrapped.String())
	}
	return nil
}

// TestDocsGoSnippetsGofmt keeps every ```go fence in the docs
// formatted exactly as gofmt would write it.
func TestDocsGoSnippetsGofmt(t *testing.T) {
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range goFenceRe.FindAllStringSubmatch(string(body), -1) {
			if err := gofmtClean(m[1]); err != nil {
				t.Errorf("%s: go snippet %d: %v", file, i+1, err)
			}
		}
	}
}

var (
	// A seedb command (the verify skill builds cmd/seedb as seedb-bin)
	// with its arguments: up to the end of the line, a closing backtick
	// or a pipe.
	docCommandRe = regexp.MustCompile("(?m)(?:^|[\\s/`(])(seedb(?:-bench|-cli)?)(?:-bin)?((?:[ \\t]+[^\\s`|]+)*)")
	docFlagRe    = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	flagDeclRe   = regexp.MustCompile(`flag\.\w+\((?:&\w+, )?"([a-z0-9-]+)"`)
	rootJSONRe   = regexp.MustCompile("(?m)(?:^|[\\s`(])([A-Za-z0-9_][\\w.-]*\\.json)\\b")
)

// TestDocsCommandsExist keeps the docs from advertising entry points
// that are gone: every flag shown after `seedb`, `seedb-bench` or
// `seedb-cli` must be one that command registers, and every root-level
// *.json file named must exist. The verify skill is held to the same.
func TestDocsCommandsExist(t *testing.T) {
	registered := map[string]map[string]bool{}
	for _, cmd := range []string{"seedb", "seedb-bench", "seedb-cli"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		registered[cmd] = map[string]bool{}
		for _, m := range flagDeclRe.FindAllStringSubmatch(string(src), -1) {
			registered[cmd][m[1]] = true
		}
		if len(registered[cmd]) == 0 {
			t.Fatalf("found no flag declarations in cmd/%s/main.go", cmd)
		}
	}
	files := docFiles(t)
	if skill := filepath.Join(".claude", "skills", "verify", "SKILL.md"); fileExists(skill) {
		files = append(files, skill)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		body := strings.ReplaceAll(string(raw), "\\\n", " ") // join continued shell lines
		flags := 0
		for _, m := range docCommandRe.FindAllStringSubmatch(body, -1) {
			for _, arg := range strings.Fields(m[2]) {
				if f := docFlagRe.FindStringSubmatch(arg); f != nil {
					flags++
					if !registered[m[1]][f[1]] {
						t.Errorf("%s: `%s%s` uses -%s, which cmd/%s does not register", file, m[1], m[2], f[1], m[1])
					}
				}
			}
		}
		for _, m := range rootJSONRe.FindAllStringSubmatch(body, -1) {
			if !fileExists(m[1]) {
				t.Errorf("%s: names %s, which does not exist at the repository root", file, m[1])
			}
		}
		t.Logf("%s: %d command flags checked", file, flags)
	}
}

// A quoted API path, with what follows it when that makes it a prefix
// ("/api/shard/*", "/api/shard/").
var docRouteRe = regexp.MustCompile(`(/api/[a-z]+(?:/[a-z]+)*)(/\*|/)?`)

// TestDocsRoutesExist keeps the docs and the mux in step, so moving an
// endpoint cannot leave a dangling doc: every /api/... path quoted in
// README.md, ARCHITECTURE.md, docs/ and the verify skill is a route the
// frontend registers (or, written as a prefix, covers one), and every
// registered /api/ route appears in docs/API.md.
func TestDocsRoutesExist(t *testing.T) {
	routes := frontend.Routes()
	files := docFiles(t)
	if skill := filepath.Join(".claude", "skills", "verify", "SKILL.md"); fileExists(skill) {
		files = append(files, skill)
	}
	documented := map[string]bool{}
	for _, file := range files {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		paths := 0
		for _, m := range docRouteRe.FindAllStringSubmatch(string(body), -1) {
			paths++
			ok := slices.Contains(routes, m[1])
			if m[2] != "" {
				ok = slices.ContainsFunc(routes, func(r string) bool { return strings.HasPrefix(r, m[1]+"/") })
			}
			if !ok {
				t.Errorf("%s: names %s%s, which the frontend does not register", file, m[1], m[2])
			}
			if file == filepath.Join("docs", "API.md") {
				documented[m[1]] = true
			}
		}
		t.Logf("%s: %d API paths checked", file, paths)
	}
	for _, r := range routes {
		if strings.HasPrefix(r, "/api/") && !documented[r] {
			t.Errorf("docs/API.md does not document the registered route %s", r)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

var statsExampleRe = regexp.MustCompile("(?s)\n## GET /api/stats\n.*?```json\n(.*?)```")

// jsonKeyPaths flattens a decoded JSON value into the set of its key
// paths ("cluster.workers[].id"); an array contributes its elements'
// paths under "[]".
func jsonKeyPaths(prefix string, v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			path := strings.TrimPrefix(prefix+"."+k, ".")
			into[path] = true
			jsonKeyPaths(path, child, into)
		}
	case []any:
		for _, child := range v {
			jsonKeyPaths(prefix+"[]", child, into)
		}
	}
}

// TestDocsStatsKeys keeps the /api/stats example in docs/API.md equal,
// key for key, to what a server really answers: a field the structs
// never emitted cannot be documented, and a new field cannot go
// undocumented. The live server has every optional section switched on
// (sharded backend, a data dir recovered from an earlier life, a
// checkpoint taken) so every key the example shows has a reason to
// appear.
func TestDocsStatsKeys(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := statsExampleRe.FindSubmatch(doc)
	if m == nil {
		t.Fatal("docs/API.md: no ```json example under \"## GET /api/stats\"")
	}
	var documented any
	if err := json.Unmarshal(m[1], &documented); err != nil {
		t.Fatalf("docs/API.md: the /api/stats example is not valid JSON: %v", err)
	}

	// First life: log a batch and take a checkpoint, so the second life
	// has snapshots to load. Every instance appends the same row, so the
	// worker below holds the coordinator's bytes.
	open := func(dataDir string, batches int) *seedb.DB {
		t.Helper()
		db := seedb.Open()
		if err := db.RegisterTable(seedb.SuperstoreTable("orders", 2000, 1)); err != nil {
			t.Fatal(err)
		}
		if dataDir != "" {
			if _, err := db.EnableDurability(dataDir, 1, 1000); err != nil {
				t.Fatal(err)
			}
		}
		orders, err := db.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		for ; batches > 0; batches-- {
			if _, err := db.Append("orders", [][]seedb.Value{orders.Row(0)}); err != nil {
				t.Fatal(err)
			}
		}
		if dataDir != "" {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	dir := t.TempDir()
	if err := open(dir, 1).CloseDurability(); err != nil {
		t.Fatal(err)
	}
	db := open(dir, 1)
	defer db.CloseDurability()
	worker := httptest.NewServer(frontend.New(open("", 2), nil, nil))
	defer worker.Close()
	db.ShardRemote([]string{worker.URL}, 10*time.Second, seedb.ClusterConfig{})
	srv := frontend.New(db, nil, nil)
	post := httptest.NewRequest(http.MethodPost, "/api/recommend",
		strings.NewReader(`{"sql":"SELECT * FROM orders WHERE category = 'Furniture'","k":3}`))
	post.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, post)
	if w.Code != http.StatusOK {
		t.Fatalf("recommend = %d: %s", w.Code, w.Body)
	}
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	var live any
	if err := json.Unmarshal(w.Body.Bytes(), &live); err != nil {
		t.Fatalf("GET /api/stats = %d, not JSON: %v", w.Code, err)
	}

	want, got := map[string]bool{}, map[string]bool{}
	jsonKeyPaths("", documented, want)
	jsonKeyPaths("", live, got)
	for path := range want {
		if !got[path] {
			t.Errorf("docs/API.md documents /api/stats key %q, which a live response does not carry", path)
		}
	}
	for path := range got {
		if !want[path] {
			t.Errorf("a live /api/stats response carries key %q, which the docs/API.md example does not show", path)
		}
	}
}
