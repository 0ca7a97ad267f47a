(* Process-wide routing diagnostics, in the style of [Pool.stats]:
   lock-free atomic counters bumped on the router's hot paths, snapshot
   on demand.  Counters are observability only — they never feed back
   into routing decisions, so their (scheduling-dependent) intermediate
   values cannot perturb results; totals over a deterministic run are
   themselves deterministic. *)

let coarse_searches = Atomic.make 0
let fine_searches = Atomic.make 0
let flat_searches = Atomic.make 0
let flat_fallbacks = Atomic.make 0
let scratch_grows = Atomic.make 0

type stats = {
  coarse_searches : int;
  fine_searches : int;
  flat_searches : int;
  flat_fallbacks : int;
  scratch_grows : int;
}

let stats () =
  {
    coarse_searches = Atomic.get coarse_searches;
    fine_searches = Atomic.get fine_searches;
    flat_searches = Atomic.get flat_searches;
    flat_fallbacks = Atomic.get flat_fallbacks;
    scratch_grows = Atomic.get scratch_grows;
  }

let reset () =
  Atomic.set coarse_searches 0;
  Atomic.set fine_searches 0;
  Atomic.set flat_searches 0;
  Atomic.set flat_fallbacks 0;
  Atomic.set scratch_grows 0
