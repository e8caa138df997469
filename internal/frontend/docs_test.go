package frontend

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// recommendExampleRe captures the first JSON example under the
// /api/recommend heading of docs/API.md: the request body.
var recommendExampleRe = regexp.MustCompile("(?s)\n## POST /api/recommend\n.*?```json\n(.*?)```")

// TestDocsRecommendRequest keeps the documented /api/recommend body and
// the request type in step: every documented field decodes into
// recommendRequest (a removed field cannot stay documented), and every
// field the type decodes is in the example (a new one cannot go
// undocumented).
func TestDocsRecommendRequest(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := recommendExampleRe.FindSubmatch(doc)
	if m == nil {
		t.Fatal("docs/API.md: no ```json example under \"## POST /api/recommend\"")
	}
	dec := json.NewDecoder(bytes.NewReader(m[1]))
	dec.DisallowUnknownFields()
	var req recommendRequest
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("docs/API.md: the /api/recommend example does not decode into the request type: %v", err)
	}
	var documented map[string]json.RawMessage
	if err := json.Unmarshal(m[1], &documented); err != nil {
		t.Fatal(err)
	}
	rt := reflect.TypeOf(req)
	for i := range rt.NumField() {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		if _, ok := documented[name]; !ok {
			t.Errorf("docs/API.md: the /api/recommend example lacks %q", name)
		}
	}
}
