// Fixture for the spanleak analyzer. The recorder API is modeled
// locally — the analyzer matches the Begin/BeginChild → *Span shape
// structurally, exactly as it does against repro/internal/trace.
package fixture

type Span struct{ Open bool }

func (s *Span) End() {}

type Recorder struct{}

func (r *Recorder) Begin(name string) *Span             { return &Span{Open: true} }
func (r *Recorder) BeginChild(p *Span, nm string) *Span { return &Span{Open: true} }
func (r *Recorder) Adopt(sp *Span)                      {}

type holder struct{ sp *Span }

func badEarlyReturn(r *Recorder, err error) error {
	sp := r.Begin("deploy") // want "not Ended"
	if err != nil {
		return err // leaks sp open
	}
	sp.End()
	return nil
}

func badNeverEnded(r *Recorder) {
	sp := r.Begin("deploy") // want "not Ended"
	_ = sp
}

func badDiscarded(r *Recorder) {
	r.Begin("deploy") // want "discarded"
}

func badOverwrite(r *Recorder) {
	sp := r.Begin("a")
	sp = r.Begin("b") // want "reassigned while its span is still open"
	sp.End()
}

func badLoopContinue(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		sp := r.Begin("iter") // want "not Ended"
		if i == 0 {
			continue // leaks this iteration's span
		}
		sp.End()
	}
}

func badLabeledBreak(r *Recorder, stop bool) {
outer:
	for {
		for {
			sp := r.Begin("inner") // want "not Ended"
			if stop {
				break outer // leaks sp
			}
			sp.End()
		}
	}
}

func goodDeferEnd(r *Recorder, err error) error {
	sp := r.Begin("deploy")
	defer sp.End()
	if err != nil {
		return err
	}
	return nil
}

func goodEndOnEveryBranch(r *Recorder, ok bool) {
	sp := r.Begin("deploy")
	if ok {
		sp.End()
		return
	}
	sp.End()
}

func goodEscapeReturn(r *Recorder) *Span {
	sp := r.Begin("deploy")
	return sp // caller owns it now
}

func goodEscapeStore(r *Recorder, h *holder) {
	sp := r.Begin("deploy")
	h.sp = sp // the holder owns it now
}

func goodCallHandoff(r *Recorder) {
	sp := r.Begin("deploy")
	r.Adopt(sp) // the callee owns it now
}

func goodPanicPathExempt(r *Recorder, broken bool) {
	sp := r.Begin("deploy")
	if broken {
		panic("invariant") // panic paths owe no End
	}
	sp.End()
}

func goodConditionalBegin(r *Recorder, traced bool) {
	// The mediator idiom: sp stays nil when tracing is off; a nil-safe
	// End covers both paths.
	var sp *Span
	if traced {
		sp = r.Begin("io")
	}
	defer sp.End()
}

func goodClosureCapture(r *Recorder) {
	// Captured variables are untrackable: the deferred closure may End
	// the span no matter where the Begin sits.
	var sp *Span
	defer func() { sp.End() }()
	sp = r.Begin("deploy")
}

func allowedOpenOnPurpose(r *Recorder) {
	sp := r.Begin("leak-fixture") //bmcast:allow spanleak fixture: deliberately left open
	_ = sp
}
