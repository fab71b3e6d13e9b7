package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
		p, err := scanRecords(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		check(t, p.records)
		if p.runs != len(recs) || p.passed != 2 || p.size != int64(whole) {
			t.Errorf("prefix of %d runs, %d passed, %d bytes; want %d, 2, %d", p.runs, p.passed, p.size, len(recs), whole)
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

// A whole line that is not a record is a fault in the stream, not a
// record to skip: it reaches the sink like every byte, and then the
// stream ends with an error that says which line. Progress that counted
// one record fewer than the file holds lines said nothing.
func TestStreamRecordsReportsALineThatDoesNotDecode(t *testing.T) {
	good, err := json.Marshal(campaign.RunRecord{Index: 0, Label: "good", Outcome: campaign.OutcomePass})
	if err != nil {
		t.Fatal(err)
	}
	stream := string(good) + "\n" + `{"index":"one"}` + "\n" + string(good) + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(stream))
	}))
	defer ts.Close()
	var sink bytes.Buffer
	seen := 0
	err = NewClient(ts.URL).StreamRecords(context.Background(), "job", &sink, func(campaign.RunRecord) { seen++ })
	if err == nil || !strings.Contains(err.Error(), "service: record stream: line 2 does not decode: ") {
		t.Fatalf("error %v, want the second line named", err)
	}
	if want := stream[:len(good)+1+len(`{"index":"one"}`)+1]; seen != 1 || sink.String() != want {
		t.Errorf("%d records seen, sink holds %q; want 1 and %q", seen, sink.String(), want)
	}
	// Without a callback nothing is decoded, so nothing can fail to.
	sink.Reset()
	if err := NewClient(ts.URL).StreamRecords(context.Background(), "job", &sink, nil); err != nil || sink.String() != stream {
		t.Errorf("verbatim copy: error %v, %d of %d bytes", err, sink.Len(), len(stream))
	}
}

// FuzzScanRecords is the journal's torn-tail scan on arbitrary bytes —
// what a kill mid-write, a full disk or an editor can leave in
// runs.jsonl. It never panics; what it keeps is a prefix of the input
// made of whole lines that are records 0..n-1; and the prefix is a fixed
// point: truncated to it, as restoreJob truncates, the journal scans to
// the same prefix again.
func FuzzScanRecords(f *testing.F) {
	line := func(i int, outcome string) string {
		b, err := json.Marshal(campaign.RunRecord{Index: i, Label: "l", Outcome: outcome})
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	whole := line(0, campaign.OutcomePass) + line(1, campaign.OutcomeFail) + line(2, campaign.OutcomePass)
	f.Add([]byte(whole))
	f.Add([]byte(whole[:len(whole)-1]))                          // torn inside the last line
	f.Add([]byte(whole + `{"index":3,"la`))                      // torn after it
	f.Add([]byte(line(0, "pass") + line(2, "pass")))             // a hole
	f.Add([]byte(line(0, "pass") + "\n" + line(1, "pass")))      // an empty line
	f.Add([]byte(line(0, "pass") + "{\"index\": 1}\n" + "[]\n")) // the reference's line, then no record
	f.Add([]byte(strings.Repeat(" ", lineBufSize) + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := scanRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("scanning bytes in memory: %v", err)
		}
		if p.size < 0 || p.size > int64(len(data)) || p.runs != len(p.records) || p.passed > p.runs {
			t.Fatalf("prefix of %d runs (%d records, %d passed) and %d bytes from %d bytes", p.runs, len(p.records), p.passed, p.size, len(data))
		}
		kept := data[:p.size]
		if bytes.Count(kept, []byte("\n")) != p.runs || (p.size > 0 && kept[p.size-1] != '\n') {
			t.Fatalf("%d runs kept in %q", p.runs, kept)
		}
		for i, r := range p.records {
			if r.Index != i {
				t.Fatalf("record %d has index %d", i, r.Index)
			}
		}
		again, err := scanRecords(bytes.NewReader(kept))
		if err != nil || again.runs != p.runs || again.passed != p.passed || again.size != p.size {
			t.Fatalf("the kept prefix scans to %d runs, %d passed, %d bytes (%v); first scan %d, %d, %d", again.runs, again.passed, again.size, err, p.runs, p.passed, p.size)
		}
	})
}
