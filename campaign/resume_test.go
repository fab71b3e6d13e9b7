package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// scanJSONL parses a sink's bytes back into records, asserting the
// contiguous-prefix invariant the executor keeps even when canceled.
func scanJSONL(t *testing.T, b []byte) []RunRecord {
	t.Helper()
	var recs []RunRecord
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r RunRecord
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad sink line %q: %v", line, err)
		}
		if r.Index != len(recs) {
			t.Fatalf("sink not a contiguous prefix: line %d has index %d", len(recs), r.Index)
		}
		recs = append(recs, r)
	}
	return recs
}

// Resuming past the final record is the "killed after the last flush"
// case: no run executes, the summary is rebuilt from Prior alone.
func TestResumeFromCompleteJournal(t *testing.T) {
	spec := quickstartSpec(2, nil)
	wantJSONL, wantSummary := runToBytes(t, spec, 1)
	prior := scanJSONL(t, wantJSONL)

	var sink bytes.Buffer
	sum, err := Run(context.Background(), spec, Options{
		Sink:       &sink,
		FirstIndex: len(prior),
		Prior:      prior,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if sink.Len() != 0 {
		t.Errorf("resume past the end re-wrote %d bytes", sink.Len())
	}
	var sumBuf bytes.Buffer
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sumBuf.Bytes(), wantSummary) {
		t.Errorf("summary rebuilt from Prior differs:\n%s\nwant:\n%s", sumBuf.Bytes(), wantSummary)
	}
}

func TestResumeBeyondMatrixRejected(t *testing.T) {
	spec := quickstartSpec(1, nil)
	if _, err := Run(context.Background(), spec, Options{FirstIndex: spec.Runs() + 1}); err == nil {
		t.Error("FirstIndex beyond the matrix accepted")
	}
}
