// Command tracecheck validates a Chrome trace-event JSON file emitted by
// predis-bench -trace: the file must parse, and every pipeline stage must
// have recorded at least one complete ("X") span event, whichever commit
// mode the run used. It is the verifier behind the trace row of
// `make smoke`.
//
// Usage: tracecheck <trace.json>
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"predis/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json>")
		return 2
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		return 1
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %s does not parse as Chrome trace JSON: %v\n", os.Args[1], err)
		return 1
	}
	if len(doc.TraceEvents) == 0 {
		fmt.Fprintf(os.Stderr, "tracecheck: %s contains no trace events\n", os.Args[1])
		return 1
	}
	spans := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			spans[e.Name]++
		}
	}
	missing := 0
	for _, name := range obs.StageNames {
		if spans[name] == 0 {
			fmt.Fprintf(os.Stderr, "tracecheck: stage %q has no spans\n", name)
			missing++
		}
	}
	if missing > 0 {
		return 1
	}
	fmt.Printf("tracecheck: %s OK — %d events, all %d pipeline stages present (",
		os.Args[1], len(doc.TraceEvents), len(obs.StageNames))
	for i, name := range obs.StageNames {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%s=%d", name, spans[name])
	}
	fmt.Println(")")
	return 0
}
