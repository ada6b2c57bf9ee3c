// Command docscheck keeps the markdown tree honest. It fails (exit 1,
// one line per finding) on two classes of rot:
//
//   - broken intra-repo links: every relative [text](target) in every
//     tracked .md file must point at a file that exists (anchors are
//     stripped; external schemes and pure-anchor links are ignored);
//   - route drift: the route inventory in docs/api.md (the table
//     between the routes:begin/end markers) must list exactly the
//     routes registered in the worker mux (internal/service) and the
//     router mux (internal/shard) — a route added in code without a
//     docs row, or documented without existing, fails the build.
//
// CI runs it in the docs job; run it locally from the repo root:
//
//	go run ./cmd/docscheck
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// mdLink matches [text](target); images ![alt](target) match too via
// the bracket text, which is fine — their targets must exist as well.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// routeReg matches a mux registration in the serving packages. Both
// tiers funnel every route through a local handle(pattern, ...)
// helper, so this one shape is the complete inventory.
var routeReg = regexp.MustCompile(`handle\("([^"]+)"`)

// docRoute matches a backticked route cell in the api.md inventory.
var docRoute = regexp.MustCompile("`(/[^`]*)`")

func main() {
	problems := 0
	report := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "docscheck: "+format+"\n", args...)
		problems++
	}

	checkLinks(report)
	checkRoutes(report)

	if problems > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", problems)
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links and route inventory are clean")
}

// checkLinks verifies every relative link target in every .md file.
func checkLinks(report func(string, ...any)) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		// The paper-corpus files are captured external text, not part
		// of the maintained docs tree; their links point into sources
		// this repo never vendored.
		switch path {
		case "PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md":
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
				continue // external
			case strings.HasPrefix(target, "#"):
				continue // same-document anchor
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				report("%s: broken link target %q (resolved %s)", path, m[1], resolved)
			}
		}
		return nil
	})
	if err != nil {
		report("walking markdown tree: %v", err)
	}
}

// checkRoutes diffs the api.md inventory against the registered muxes.
func checkRoutes(report func(string, ...any)) {
	// Every non-test source file of the two serving packages is
	// scanned, so moving a mux (or splitting its file) cannot silently
	// empty the inventory.
	code := map[string]bool{}
	for _, pkg := range []string{"internal/service", "internal/shard"} {
		srcs, err := filepath.Glob(filepath.Join(pkg, "*.go"))
		if err != nil || len(srcs) == 0 {
			report("no Go sources under %s (err %v)", pkg, err)
			return
		}
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			body, err := os.ReadFile(src)
			if err != nil {
				report("reading %s: %v", src, err)
				return
			}
			for _, m := range routeReg.FindAllStringSubmatch(string(body), -1) {
				code[m[1]] = true
			}
		}
	}
	if len(code) == 0 {
		report("no handle(...) registrations found — did the serving muxes move?")
		return
	}

	api, err := os.ReadFile("docs/api.md")
	if err != nil {
		report("reading docs/api.md: %v", err)
		return
	}
	text := string(api)
	lo := strings.Index(text, "<!-- routes:begin -->")
	hi := strings.Index(text, "<!-- routes:end -->")
	if lo < 0 || hi < 0 || hi < lo {
		report("docs/api.md: routes:begin/routes:end markers missing or out of order")
		return
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(text[lo:hi], "\n") {
		// Only the route column (the first backticked cell) counts;
		// description cells may mention paths freely.
		if !strings.HasPrefix(strings.TrimSpace(line), "| `") {
			continue
		}
		if m := docRoute.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}

	var missing, stale []string
	for r := range code {
		if !documented[r] {
			missing = append(missing, r)
		}
	}
	for r := range documented {
		if !code[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, r := range missing {
		report("docs/api.md route inventory is missing %q (registered in code)", r)
	}
	for _, r := range stale {
		report("docs/api.md documents route %q, which no mux registers", r)
	}
}
