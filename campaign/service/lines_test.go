package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"virtualwire/campaign"
)

// Both readers of a record stream — the journal scan behind resume and
// the client's live stream — go through a reader far smaller than a
// large testbed's record. A record longer than the buffer must come
// through whole, records after it must still be found, and a torn last
// line (the daemon was killed mid-write) must end the resumable prefix
// without being mistaken for a record.
func TestRecordStreamLongAndTornLines(t *testing.T) {
	recs := []campaign.RunRecord{
		{Index: 0, Label: "short", Outcome: campaign.OutcomePass},
		{Index: 1, Label: "long", Outcome: campaign.OutcomeError, Error: strings.Repeat("x", 3*lineBufSize+17)},
		{Index: 2, Label: "after", Outcome: campaign.OutcomePass},
	}
	var stream bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(line)
		stream.WriteByte('\n')
	}
	whole := stream.Len()
	stream.WriteString(`{"index":3,"label":"to`)

	check := func(t *testing.T, got []campaign.RunRecord) {
		t.Helper()
		if len(got) != len(recs) {
			t.Fatalf("read %d records, want %d", len(got), len(recs))
		}
		for i, r := range got {
			if r.Index != i || r.Label != recs[i].Label || r.Error != recs[i].Error {
				t.Errorf("record %d came back as index %d, label %q, %d bytes of error", i, r.Index, r.Label, len(r.Error))
			}
		}
	}

	t.Run("scanRecords", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), recordsFile)
		if err := os.WriteFile(path, stream.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		prior, goodLen, err := scanRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		check(t, prior)
		if goodLen != int64(whole) {
			t.Errorf("resumable prefix is %d bytes, want %d", goodLen, whole)
		}
	})

	t.Run("StreamRecords", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write(stream.Bytes())
		}))
		defer ts.Close()
		var sink bytes.Buffer
		var live []campaign.RunRecord
		err := NewClient(ts.URL).StreamRecords(context.Background(), "job", &sink,
			func(r campaign.RunRecord) { live = append(live, r) })
		if err != nil {
			t.Fatal(err)
		}
		// The sink gets the stream verbatim, torn tail and all; only whole
		// lines are decoded.
		if !bytes.Equal(sink.Bytes(), stream.Bytes()) {
			t.Errorf("sink holds %d bytes, the stream was %d", sink.Len(), stream.Len())
		}
		check(t, live)
	})
}
