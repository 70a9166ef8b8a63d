(* `bench scale`: million-access detection — throughput and memory
   bounds of the slab-chunked / epoch-GC'd / spill-bounded detectors
   (DESIGN.md §15) on the closed-form scale workloads
   (Benchsuite.Progen.scale_presets: wide grid, deep task chain,
   hot-address skew, phased finishes, sparse id space).

   For every workload x backend (ESP-bags, vector clocks; MRW — the
   flavour whose shadow actually grows), the sweep times the same
   deterministic execution with the default slab-chunked shadow.  Per
   row it records detection throughput (accesses per second of
   detection time = run minus uninstrumented baseline; null when that
   difference is below the noise floor — see Harness), the GC-heap
   high-water mark of the run (Obs.Rusage.watermark — per-run, unlike
   process RSS, which is monotone), allocated shadow slabs/words,
   entries retired by epoch GC, and clocks freed (vclock).  The
   process-wide peak RSS (getrusage) is reported once in the summary.

   Report invariance is asserted, not assumed: per workload the race
   records of the chunked ESP-bags and vclock runs, and of each backend
   with a deliberately tiny spill cap (forcing the disk-overflow path),
   must all be byte-identical to the unbounded seed oracle
   (Oracles.Reference).  Any mismatch aborts rather than print a
   corrupt table.

   The sparse workload's interned id span is ~17x larger than its
   touched set: a dense per-id shadow table would scale with the span,
   the chunked one scales with the touched chunks.  The sweep asserts
   chunked shadow words strictly below what a dense table of the same
   backend would need there (sublinear growth in the untouched span).

   Knobs (Harness): TDR_BENCH_REPEAT (default 2), TDR_BENCH_SUITE
   (workload names), TDR_BENCH_MIN_ACCESSES_PER_S (throughput floor over
   the aggregate; default 20000, 0 disables), TDR_BENCH_MAX_RSS_MB
   (process peak-RSS ceiling; default 0 = disabled), TDR_BENCH_OUT.  The
   quick variant (`bench scale-quick`, @ci) shrinks every workload ~16x
   (~10^5 accesses) and does a single run per configuration, keeping all
   assertions, the sparse row's and the spill path's included. *)

(* Quick variants: every dimension cut so each workload lands near 10^5
   accesses; shapes and ratios preserved. *)
let quick_config (cfg : Benchsuite.Progen.scale_config) :
    Benchsuite.Progen.scale_config =
  let shape =
    match cfg.shape with
    | Benchsuite.Progen.Grid { tasks; reps } ->
        Benchsuite.Progen.Grid { tasks = tasks / 4; reps = reps / 4 }
    | Deep { depth; reps } -> Deep { depth = depth / 4; reps = reps / 4 }
    | Hot { tasks; reps; hot } ->
        Hot { tasks = tasks / 4; reps = max 1 (reps / 4); hot = max 1 (hot / 4) }
    | Phased { phases; tasks; reps; hot } ->
        Phased
          {
            phases = max 2 (phases / 2);
            tasks = tasks / 4;
            reps = max 1 (reps / 2);
            hot = max 1 (hot / 4);
          }
    | Sparse { pad_arrays; pad_len; tasks; reps } ->
        Sparse { pad_arrays; pad_len = pad_len / 4; tasks = tasks / 4; reps = reps / 4 }
  in
  { cfg with shape }

let workloads ~quick () =
  let all =
    if quick then
      List.map
        (fun (n, c) -> (n, quick_config c))
        Benchsuite.Progen.scale_presets
    else Benchsuite.Progen.scale_presets
  in
  Harness.suite ~sweep:"scale" fst all

type mem = {
  hw_words : int;  (** GC-heap high-water mark of the run *)
  shadow_slabs : int;
  shadow_words : int;
  gc_retired : int;
  clocks_freed : int;  (** vclock only; 0 for ESP-bags *)
}

type row = {
  workload : string;
  backend : string;  (** "espbags" | "vclock" *)
  accesses : int;
  races : int;
  id_span : int;  (** address ids the run interned *)
  nop_t : Harness.sample;  (** uninstrumented baseline *)
  chunked_t : Harness.sample;
  chunked : mem;
  spilled : int;  (** records through the forced-spill identity run *)
}

(* Slab size in slots of the measured runs (a power of two); the sparse
   row's gate bounds the chunked table's words with it. *)
let chunk = Tdrutil.Islab.default_chunk

(* Detection throughput; [None] below the noise floor (Harness). *)
let aps r = Harness.rate r.accesses r.chunked_t r.nop_t

let row_measurable r = Option.is_some (aps r)

(* Aggregate throughput over the measurable rows; [None] without any. *)
let aggregate_aps mrows =
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. mrows in
  if mrows = [] then None
  else
    Some
      (total (fun r -> float_of_int r.accesses)
      /. total (fun r -> Option.get (Harness.det_time r.chunked_t r.nop_t)))

(* One measured detection run: time, heap high-water mark, and detector
   gauges, under a [Gc.full_major]-cleaned heap. *)
let run_one f =
  Gc.full_major ();
  let wm = Obs.Rusage.watermark () in
  let r, s = Obs.Clock.time f in
  let hw = Obs.Rusage.dispose wm in
  (r, s, hw)

let stat det key =
  match List.assoc_opt key det with Some v -> v | None -> 0

let measure ~repeat ~spill_dir (name, cfg) : row list =
  let src = Benchsuite.Progen.generate_scaled cfg in
  let prog = Mhj.Front.compile src in
  let nop_t = Harness.sample () in
  for _ = 1 to repeat do
    let _, s, _ = run_one (fun () -> ignore (Rt.Interp.run prog)) in
    Harness.record nop_t s
  done;
  (* unbounded oracle: the seed implementation, hashtable bags and boxed
     shadow — no slabs, no GC, no spill *)
  let oracle =
    Espbags.Race.exact_sigs
      (Oracles.Reference.races
         (fst (Oracles.Reference.detect Espbags.Detector.Mrw prog)))
  in
  let time_runs f =
    let t = Harness.sample () and last = ref None and hw = ref 0 in
    for _ = 1 to repeat do
      let det, s, h = run_one f in
      Harness.record t s;
      if h > !hw then hw := h;
      last := Some det
    done;
    (Option.get !last, t, !hw)
  in
  let identical = Harness.identical ~sweep:"scale" name in
  let backend bname ~detect ~races ~stats ~intern ~spill_races : row =
    let chunked_det, chunked_t, chunked_hw = time_runs detect in
    let csigs = Espbags.Race.exact_sigs (races chunked_det) in
    identical (bname ^ " chunked vs seed oracle") csigs oracle;
    (* force the spill path: a cap far below the race count drains
       r_buf to disk mid-run; the report must survive the round-trip *)
    let spill_path = Filename.concat spill_dir (name ^ "-" ^ bname ^ ".spill") in
    let n_spilled, spill_sigs = spill_races spill_path in
    identical (bname ^ " spilled vs seed oracle") spill_sigs oracle;
    if List.length oracle > 4 && n_spilled = 0 then
      failwith
        (Fmt.str "scale bench: %s: %s spill run spilled nothing" name bname);
    let mem det hw =
      let st = stats det in
      {
        hw_words = hw;
        shadow_slabs = stat st "detector.shadow_slabs";
        shadow_words = stat st "detector.shadow_words";
        gc_retired = stat st "detector.gc_retired";
        clocks_freed = stat st "detector.clocks_freed";
      }
    in
    {
      workload = name;
      backend = bname;
      accesses = stat (stats chunked_det) "detector.accesses";
      races = List.length csigs;
      id_span = Rt.Addr.Intern.n_ids (intern chunked_det);
      nop_t;
      chunked_t;
      chunked = mem chunked_det chunked_hw;
      spilled = n_spilled;
    }
  in
  let eb_row =
    backend "espbags"
      ~detect:(fun () ->
        fst (Espbags.Detector.detect ~chunk Espbags.Detector.Mrw prog))
      ~races:Espbags.Detector.races ~stats:Espbags.Detector.stats
      ~intern:(fun det -> det.Espbags.Detector.intern) ~spill_races:(fun path ->
        let det, _ =
          Espbags.Detector.detect
            ~spill:(Espbags.Spill.config ~cap:2 path)
            Espbags.Detector.Mrw prog
        in
        ( Espbags.Detector.n_spilled det,
          Espbags.Race.exact_sigs (Espbags.Detector.races det) ))
  in
  let vc_row =
    backend "vclock"
      ~detect:(fun () -> fst (Vclock.Seq.detect ~chunk Vclock.Seq.Mrw prog))
      ~races:Vclock.Seq.races ~stats:Vclock.Seq.stats
      ~intern:(fun det -> det.Vclock.Seq.intern) ~spill_races:(fun path ->
        let det, _ =
          Vclock.Seq.detect
            ~spill:(Espbags.Spill.config ~cap:2 path)
            Vclock.Seq.Mrw prog
        in
        (Vclock.Seq.n_spilled det, Espbags.Race.exact_sigs (Vclock.Seq.races det)))
  in
  [ eb_row; vc_row ]

let report ~repeat ~quick rows =
  let module J = Obs.Json in
  let row_json r =
    J.Obj
      [
        ("workload", J.Str r.workload);
        ("backend", J.Str r.backend);
        ("accesses", J.Int r.accesses);
        ("races", J.Int r.races);
        ("nop_s", J.Float r.nop_t.best);
        ("chunked_s", J.Float r.chunked_t.best);
        ("det_accesses_per_s", Harness.measured (aps r));
        ("chunked_hw_words", J.Int r.chunked.hw_words);
        ("chunked_shadow_slabs", J.Int r.chunked.shadow_slabs);
        ("chunked_shadow_words", J.Int r.chunked.shadow_words);
        ("gc_retired", J.Int r.chunked.gc_retired);
        ("clocks_freed", J.Int r.chunked.clocks_freed);
        ("spilled_races", J.Int r.spilled);
        ("measurable", J.Bool (row_measurable r));
      ]
  in
  let mrows = List.filter row_measurable rows in
  J.Obj
    [
      ("repeat", J.Int repeat);
      ("quick", J.Bool quick);
      ("measured_rows", J.Int (List.length mrows));
      ( "total_accesses",
        J.Int (List.fold_left (fun acc r -> acc + r.accesses) 0 rows) );
      ("aggregate_det_accesses_per_s", Harness.measured (aggregate_aps mrows));
      ("peak_rss_kb", J.Int (Obs.Rusage.peak_rss_kb ()));
      ("rows", J.List (List.map row_json rows));
    ]

let sweep ~quick () =
  let repeat =
    max 1 (if quick then 1 else Harness.env_int "TDR_BENCH_REPEAT" 2)
  in
  let spill_dir = Filename.temp_file "tdr-scale" "" in
  Sys.remove spill_dir;
  Unix.mkdir spill_dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat spill_dir f) with _ -> ())
        (try Sys.readdir spill_dir with _ -> [||]);
      try Unix.rmdir spill_dir with _ -> ())
    (fun () ->
      Fmt.pr "== scale: memory-bounded detection at ~10^%d accesses ==@."
        (if quick then 5 else 6);
      Fmt.pr
        "(aps = accesses/sec of detection time; hw = GC-heap high-water \
         Mwords of the run)@.";
      Fmt.pr "%-11s %-8s %10s %6s %9s %9s %8s %9s %9s@." "workload"
        "backend" "accesses" "races" "nop(ms)" "chk(ms)" "chk-hw" "retired"
        "aps";
      let rows =
        List.concat_map
          (fun w ->
            let rs = measure ~repeat ~spill_dir w in
            List.iter
              (fun r ->
                Fmt.pr "%-11s %-8s %10d %6d %9.1f %9.1f %7.1fM %9d %9s@."
                  r.workload r.backend r.accesses r.races
                  (1e3 *. r.nop_t.best) (1e3 *. r.chunked_t.best)
                  (float_of_int r.chunked.hw_words /. 1e6)
                  r.chunked.gc_retired
                  (match aps r with
                  | Some v -> Fmt.str "%.0f" v
                  | None -> "n/a"))
              rs;
            rs)
          (workloads ~quick ())
      in
      (* the sparse workload's id span is ~17x its touched set, so the
         chunked table must undercut a dense per-id table.  A dense table
         needs one slot per interned id plus the per-location access lists
         the chunked words also count; [table] bounds the chunked slabs
         and directory (at most two words per chunk index of the span)
         from above, so [dense] bounds the dense table's words from below.
         Strict-less, not a fixed ratio: the assertable difference is
         exactly the table part — touched chunks vs the whole span. *)
      List.iter
        (fun r ->
          let table =
            (r.chunked.shadow_slabs * chunk) + (2 * ((r.id_span / chunk) + 1))
          in
          let dense = r.id_span + r.chunked.shadow_words - table in
          if
            String.length r.workload >= 6
            && String.sub r.workload 0 6 = "sparse"
            && r.chunked.shadow_words >= dense
          then
            failwith
              (Fmt.str
                 "scale bench: %s/%s: chunked shadow (%d words) is not \
                  sublinear vs a dense table over %d ids (>= %d words)"
                 r.workload r.backend r.chunked.shadow_words r.id_span dense))
        rows;
      let mrows = List.filter row_measurable rows in
      let agg_aps = aggregate_aps mrows in
      let rss_kb = Obs.Rusage.peak_rss_kb () in
      Fmt.pr
        "reports byte-identical to the unbounded oracle on all %d rows \
         (chunked + forced spill); aggregate %s accesses/s over %d \
         measurable rows; process peak RSS %d MB@."
        (List.length rows)
        (match agg_aps with Some v -> Fmt.str "%.0f" v | None -> "n/a")
        (List.length mrows) (rss_kb / 1024);
      (let floor = Harness.env_float "TDR_BENCH_MIN_ACCESSES_PER_S" 20_000. in
       match agg_aps with
       | Some agg when floor > 0. && agg < floor ->
           failwith
             (Fmt.str
                "scale bench: aggregate %.0f accesses/s is below the %.0f \
                 floor (TDR_BENCH_MIN_ACCESSES_PER_S)"
                agg floor)
       | _ -> ());
      (let ceil_mb = Harness.env_int "TDR_BENCH_MAX_RSS_MB" 0 in
       if ceil_mb > 0 && rss_kb / 1024 > ceil_mb then
         failwith
           (Fmt.str
              "scale bench: process peak RSS %d MB exceeds the %d MB \
               ceiling (TDR_BENCH_MAX_RSS_MB)"
              (rss_kb / 1024) ceil_mb));
      Harness.write ~quick "scale" (report ~repeat ~quick rows))

let run () = sweep ~quick:false ()

let run_quick () = sweep ~quick:true ()
