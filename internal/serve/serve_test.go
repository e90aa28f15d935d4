package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/smart"
	"repro/internal/store"
)

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// TestServeParity is the end-to-end bit-identity check: scoring a
// drive-day over HTTP — through featurization, group routing, and the
// one-row kernel call — must produce exactly the probability the
// offline engine pass assigns that drive-day, for both the
// store-backed and inline-series request forms. The same requests
// are then sent again from many goroutines at once, each in its own
// order: pooled scratch must never carry one request's row or score
// into another's response.
func TestServeParity(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, _ := testFleet(t)
	scorer, err := engine.NewScorer(snapA, 0)
	if err != nil {
		t.Fatal(err)
	}
	day := snapA.TrainedThrough + 3
	offline, err := scorer.Score(st.Snapshot(), day, day)
	if err != nil {
		t.Fatal(err)
	}
	if len(offline) == 0 {
		t.Fatal("offline pass scored no drives")
	}

	// Each case is one request with the offline outcome it must echo.
	type parityCase struct {
		label string
		req   any // a ScoreRequest, or a raw body
		prob  float64
		alarm bool
	}
	var cases []parityCase
	snap := st.Snapshot()
	refs := snap.RefIndex(testModel)
	// Every fourth inline drive carries missing readings: nanFeat is
	// null in the body on the scored day and on a day of the window
	// history before it. Its offline outcome scores the same drive-day
	// from a source with those cells NaN.
	nanSrc := nanSource{Source: snap, feat: scorer.GroupFeatures(0)[0], days: []int{day - 2, day}, drives: map[int]bool{}}
	if nanSrc.feat == engine.MWIFeature {
		nanSrc.feat = scorer.GroupFeatures(0)[1]
	}
	var nanCases []int // indices into cases, prob and alarm from the NaN pass
	checked := 0
	for _, o := range offline {
		if checked >= 25 {
			break
		}
		id := o.Pred.DriveID
		alarm := o.Pred.FirstAlarmDay >= 0
		cases = append(cases, parityCase{fmt.Sprintf("drive %d", id),
			ScoreRequest{Model: "serving", DriveID: &id, Day: &day}, o.MaxProb, alarm})

		// Same drive-day as an inline upload: slice the store series to
		// end at the scored day; generated window statistics then see
		// the same trailing history and must match bit for bit.
		cols, _, err := snap.Series(refs[id])
		if err != nil {
			t.Fatal(err)
		}
		inline := make(map[string][]float64, len(cols))
		for ft, col := range cols {
			inline[ft.String()] = append([]float64(nil), col[:day+1]...)
		}
		if checked%4 == 0 {
			nanSrc.drives[id] = true
			for _, d := range nanSrc.days {
				inline[nanSrc.feat.String()][d] = math.NaN()
			}
			body := fmt.Sprintf(`{"model":"serving","series":%s}`, seriesJSON(inline))
			nanCases = append(nanCases, len(cases))
			cases = append(cases, parityCase{label: fmt.Sprintf("drive %d inline with nulls", id), req: json.RawMessage(body)})
		} else {
			req := ScoreRequest{Model: "serving", Series: inline}
			cases = append(cases, parityCase{fmt.Sprintf("drive %d inline", id), req, o.MaxProb, alarm})
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d drives checked end to end", checked)
	}
	nanOffline, err := scorer.Score(nanSrc, day, day)
	if err != nil {
		t.Fatal(err)
	}
	nanOutcome := map[int]engine.DriveOutcome{}
	for _, o := range nanOffline {
		nanOutcome[o.Pred.DriveID] = o
	}
	for _, i := range nanCases {
		var id int
		fmt.Sscanf(cases[i].label, "drive %d", &id)
		o, ok := nanOutcome[id]
		if !ok {
			t.Fatalf("the NaN pass did not score drive %d", id)
		}
		cases[i].prob, cases[i].alarm = o.MaxProb, o.Pred.FirstAlarmDay >= 0
	}
	if len(nanCases) == 0 {
		t.Fatal("no checked drive carries a missing reading")
	}

	check := func(c parityCase) {
		var got ScoreResponse
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", c.req, &got)
		if code != http.StatusOK {
			t.Errorf("%s: HTTP %d: %s", c.label, code, body)
			return
		}
		if got.Prob != c.prob {
			t.Errorf("%s: online prob %v != offline %v", c.label, got.Prob, c.prob)
		}
		if got.Alarm != c.alarm {
			t.Errorf("%s: online alarm %v != offline %v", c.label, got.Alarm, c.alarm)
		}
		if got.Version != 1 || got.ConfigHash != snapA.ConfigHash {
			t.Errorf("%s: response identity (v%d, %s), want (v1, %s)", c.label, got.Version, got.ConfigHash, snapA.ConfigHash)
		}
	}
	for _, c := range cases {
		check(c)
	}
	if t.Failed() {
		return
	}

	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		order := rand.New(rand.NewSource(int64(g))).Perm(len(cases))
		go func() {
			defer wg.Done()
			<-start
			for _, i := range order {
				check(cases[i])
			}
		}()
	}
	close(start)
	wg.Wait()

	// Every single-drive row is one kernel call, counted in both
	// legacy flush counters; none is ever age-flushed.
	want := int64((goroutines + 1) * len(cases))
	if st := s.Stats(); st.Coalesced != want || st.Flushes != want || st.AgeFlushes != 0 {
		t.Errorf("stats coalesced/flushes/age_flushes = %d/%d/%d, want %d/%d/0",
			st.Coalesced, st.Flushes, st.AgeFlushes, want, want)
	}
}

// nanSource is a source whose listed drives read NaN in feat on days.
type nanSource struct {
	dataset.Source
	feat   smart.Feature
	days   []int
	drives map[int]bool
}

func (s nanSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, last, err := s.Source.Series(ref)
	if err != nil || !s.drives[ref.ID] {
		return cols, last, err
	}
	out := make(map[smart.Feature][]float64, len(cols))
	for ft, col := range cols {
		out[ft] = col
	}
	col := append([]float64(nil), cols[s.feat]...)
	for _, d := range s.days {
		col[d] = math.NaN()
	}
	out[s.feat] = col
	return out, last, nil
}

// TestScoreConcurrentHammer drives the in-process single-score path
// from many goroutines at once, each cycling through distinct drives
// in its own order. Every call borrows pooled scratch for its row and
// score, so a reused buffer that leaked one caller's row or result
// into another's would show as a probability that is not the offline
// one for the drive asked about.
func TestScoreConcurrentHammer(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	_, snapA, _ := testFleet(t)
	scorer, err := engine.NewScorer(snapA, 0)
	if err != nil {
		t.Fatal(err)
	}
	day := snapA.TrainedThrough + 3
	offline, err := scorer.Score(st.Snapshot(), day, day)
	if err != nil {
		t.Fatal(err)
	}
	if len(offline) < 10 {
		t.Fatalf("offline pass scored %d drives, want at least 10", len(offline))
	}
	ids := make([]int, len(offline))
	want := make([]float64, len(offline))
	for i, o := range offline {
		ids[i], want[i] = o.Pred.DriveID, o.MaxProb
	}

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		order := rand.New(rand.NewSource(int64(g))).Perm(len(ids))
		go func() {
			defer wg.Done()
			<-start
			for n := 0; n < perG; n++ {
				i := order[n%len(order)]
				id := ids[i]
				b := storeBody(id, day)
				got, err := s.scoreOne(context.Background(), b, &b.drives[0])
				if err != nil {
					t.Errorf("drive %d: %v", id, err)
					return
				}
				if got.DriveID != id || got.Prob != want[i] {
					t.Errorf("drive %d: got (drive %d, prob %v), want prob %v", id, got.DriveID, got.Prob, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestServeBatchParity: the batch path, which buckets rows by wear
// group, must agree with the offline engine.
func TestServeBatchParity(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, _ := testFleet(t)
	scorer, err := engine.NewScorer(snapA, 0)
	if err != nil {
		t.Fatal(err)
	}
	day := snapA.TrainedThrough + 5
	offline, err := scorer.Score(st.Snapshot(), day, day)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{}
	req := BatchRequest{Model: "serving"}
	for i, o := range offline {
		if i >= 200 {
			break
		}
		id := o.Pred.DriveID
		d := day
		req.Drives = append(req.Drives, BatchDrive{DriveID: &id, Day: &d})
		want[id] = o.MaxProb
	}
	var resp BatchResponse
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	if len(resp.Results) != len(req.Drives) {
		t.Fatalf("%d results for %d drives", len(resp.Results), len(req.Drives))
	}
	for i, r := range resp.Results {
		if r.DriveID != *req.Drives[i].DriveID {
			t.Fatalf("result %d is for drive %d, want %d (order must be preserved)", i, r.DriveID, *req.Drives[i].DriveID)
		}
		if r.Prob != want[r.DriveID] {
			t.Errorf("drive %d: batch prob %v != offline %v", r.DriveID, r.Prob, want[r.DriveID])
		}
	}
}

// TestServeFleet: the whole-store path agrees with the offline engine
// pass in aggregate.
func TestServeFleet(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, _ := testFleet(t)
	scorer, err := engine.NewScorer(snapA, 0)
	if err != nil {
		t.Fatal(err)
	}
	day := snapA.TrainedThrough + 1
	offline, err := scorer.Score(st.Snapshot(), day, day)
	if err != nil {
		t.Fatal(err)
	}
	alarms := 0
	for _, o := range offline {
		if o.Pred.FirstAlarmDay >= 0 {
			alarms++
		}
	}
	for pass := 0; pass < 3; pass++ { // repeated passes exercise ScoreBuf reuse
		var resp FleetResponse
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/fleet",
			FleetRequest{Model: "serving", Day: day}, &resp)
		if code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if resp.Drives != len(offline) || resp.Alarms != alarms {
			t.Fatalf("fleet pass %d: %d drives / %d alarms, offline %d / %d",
				pass, resp.Drives, resp.Alarms, len(offline), alarms)
		}
	}
}

// TestServeFleetDayZero: a day-0 fleet request scores day 0 only —
// its response equals the engine's day-0 Scorer pass, whose outcomes
// can alarm on no later day.
func TestServeFleetDayZero(t *testing.T) {
	s, _, st := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, snapA, _ := testFleet(t)
	scorer, err := engine.NewScorer(snapA, 0)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := scorer.Score(st.Snapshot(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := FleetResponse{Model: "serving", Version: 1, ConfigHash: snapA.ConfigHash, Drives: len(offline)}
	var total float64
	for _, o := range offline {
		if o.Pred.FirstAlarmDay > 0 {
			t.Fatalf("drive %d alarms on day %d in the day-0 pass", o.Pred.DriveID, o.Pred.FirstAlarmDay)
		}
		if o.Pred.FirstAlarmDay == 0 {
			want.Alarms++
		}
		total += o.MaxProb
	}
	if want.Drives == 0 {
		t.Fatal("the day-0 pass scored no drives")
	}
	want.MeanProb = total / float64(want.Drives)
	var got FleetResponse
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/score/fleet", FleetRequest{Model: "serving", Day: 0}, &got)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	if got != want {
		t.Fatalf("day-0 fleet response %+v, Scorer pass %+v", got, want)
	}
}

// TestServeIngest: admission advances the store horizon and newly
// visible days become scoreable; days beyond the horizon are not.
func TestServeIngest(t *testing.T) {
	src, snapA, _ := testFleet(t)
	reg := newRegistryWith(t, snapA)
	st := store.Open(src, store.Options{})
	s, err := New(Options{Registry: reg, Artifacts: []string{"serving"}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	day := snapA.TrainedThrough
	// Beyond-horizon fleet scoring fails before ingest...
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score/fleet", FleetRequest{Model: "serving", Day: day}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("pre-ingest fleet score: HTTP %d, want 400", code)
	}
	var ing IngestResponse
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", IngestRequest{Day: day}, &ing)
	if code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, body)
	}
	if ing.Horizon != day+1 {
		t.Fatalf("horizon %d after ingesting day %d", ing.Horizon, day)
	}
	// ...and succeeds after.
	var fr FleetResponse
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/score/fleet", FleetRequest{Model: "serving", Day: day}, &fr)
	if code != http.StatusOK {
		t.Fatalf("post-ingest fleet score: HTTP %d: %s", code, body)
	}
	if fr.Drives == 0 {
		t.Fatal("no drives visible after ingest")
	}
	// Re-admitting an older day is a no-op, not a retreat.
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", IngestRequest{Day: day - 10}, &ing)
	if code != http.StatusOK || ing.Horizon != day+1 {
		t.Fatalf("re-ingest: HTTP %d horizon %d", code, ing.Horizon)
	}
}

// storeBody is a decoded score body naming store drive id on day.
func storeBody(id, day int) *seriesBody {
	d := bodyDrive{driveID: id, hasDriveID: true, day: day, hasDay: true}
	return &seriesBody{model: "serving", drives: []bodyDrive{d}, n: 1}
}

func newRegistryWith(t *testing.T, snap *engine.ModelSnapshot) *core.Registry {
	t.Helper()
	reg := &core.Registry{Dir: t.TempDir()}
	if _, err := engine.SaveSnapshot(reg, "serving", snap); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestServeScorerScoreIntoParity pins the satellite reuse path at the
// engine level: ScoreInto with a warm buffer returns bit-identical
// outcomes to Score, and repeated passes stop allocating
// fleet-proportional state.
func TestServeScorerScoreIntoParity(t *testing.T) {
	_, snapA, _ := testFleet(t)
	s, _, st := newTestServer(t, Options{})
	defer s.Close()
	scorer, err := engine.NewScorer(snapA, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	day := snapA.TrainedThrough + 2
	plain, err := scorer.Score(snap, day, day)
	if err != nil {
		t.Fatal(err)
	}
	var buf engine.ScoreBuf
	for pass := 0; pass < 3; pass++ {
		got, err := scorer.ScoreInto(snap, day, day, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(plain) {
			t.Fatalf("pass %d: %d outcomes, want %d", pass, len(got), len(plain))
		}
		for i := range got {
			if got[i] != plain[i] {
				t.Fatalf("pass %d outcome %d: %+v != %+v", pass, i, got[i], plain[i])
			}
		}
	}
}
