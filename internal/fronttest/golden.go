package fronttest

import (
	"bufio"
	"bytes"
	"drainnas/internal/api"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

// goldenDir holds the shapes captured at the commit before the two mux
// assemblies were merged, relative to a cmd/<tier> test's working directory.
const goldenDir = "../../internal/frontend/testdata/"

// KeyPaths flattens a JSON document into its sorted, de-duplicated key
// paths with every value dropped: objects contribute "a.b", arrays "a[]".
func KeyPaths(t testing.TB, doc []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("stats document is not JSON: %v\n%s", err, doc)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				walk(strings.TrimPrefix(prefix+"."+k, "."), child)
			}
		case []any:
			seen[prefix+"[]"] = true
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		default:
			seen[prefix] = true
		}
	}
	walk("", v)
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return []byte(strings.Join(paths, "\n") + "\n")
}

// PromHeaders keeps an exposition page's "# HELP" and "# TYPE" lines, in
// page order: the declared families without their data-dependent samples.
func PromHeaders(page []byte) []byte {
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			out.WriteString(line + "\n")
		}
	}
	return out.Bytes()
}

// Golden holds got to the checked-in file byte for byte.
func Golden(t testing.TB, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenDir + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the captured surface\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// Shapes drives one predict and one 2x2-tile scan through the tier at url
// and returns what that traffic leaves behind: the key paths of /v1/stats
// and the family headers of /v1/metrics.
func Shapes(t testing.TB, url, key string) (stats, families []byte) {
	t.Helper()
	if resp, body := Do(t, "POST", url+"/v1/predict", key, PredictBody(t, "tiny", "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict -> %d: %s", resp.StatusCode, body)
	}
	resp, body := Do(t, "POST", url+"/v1/scan", key,
		[]byte(`{"model":"wet","region":"Nebraska","tile_size":32,"chip_size":16,"seed":7}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan start -> %d: %s", resp.StatusCode, body)
	}
	var job api.ScanJob
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	// The event stream ends with the job.
	Do(t, "GET", url+"/v1/scan/"+job.ID+"/events", key, nil)
	if _, body = Do(t, "GET", url+"/v1/scan/"+job.ID, key, nil); !bytes.Contains(body, []byte(`"done_tiles":4`)) {
		t.Fatalf("scan did not classify its 4 tiles: %s", body)
	}
	_, doc := Do(t, "GET", url+"/v1/stats", key, nil)
	_, page := Do(t, "GET", url+"/v1/metrics", key, nil)
	return KeyPaths(t, doc), PromHeaders(page)
}
