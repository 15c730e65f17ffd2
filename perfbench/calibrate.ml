(* The host's speed, measured beside the work it slows.

   The development host is a 2-vCPU guest on a shared machine whose
   speed swings by up to 2x from one second to the next and drifts from
   one hour to the next: in three consecutive runs of one workload the
   raw p50 gmean moved by 18-32%.  A raw timing then says as much about
   the neighbours as about the code.  So the benchmark times a fixed
   kernel of its own in between the calls it measures, and scales each
   timing it reports by [nominal_ns / k], where [k] is the median of the
   kernel samples nearest that timing: a figure reads as the time the
   work takes on a host where the kernel takes exactly [nominal_ns].
   The kernel calls no library code, so a change to the library moves
   the figures and leaves the yardstick alone.  The report prints the
   raw figures and the kernel's median next to the scaled ones.

   The kernel mixes the three kinds of work a query does: integer
   multiply/shift/xor on a table that fits in L2 (the PRG and polynomial
   arithmetic), random read-modify-writes over 16 MiB (share-cache,
   page and B-tree lookups) and short-lived allocation that the minor
   GC collects (the engine's lists and tables).  Over windows of ten
   rounds its time moved with the workloads' with a correlation of
   0.9; the integer part alone swung almost twice as far as the
   workloads did. *)

let small = Array.init 8192 (fun i -> i * 0x9E3779B1)

(* Outside the OCaml heap, so that it does not count in [heap_peak_mb]. *)
let large =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
  Bigarray.Array1.fill a 0;
  a

let kernel () =
  let acc = ref 0 in
  for k = 0 to 75_000 do
    let j = k land 8191 in
    small.(j) <- (small.(j) * 0x5851F42D4C957F2D) lxor (small.((j * 7) land 8191) lsr 13) + k;
    acc := !acc lxor small.(j)
  done;
  let h = ref !acc in
  for _ = 0 to 37_500 do
    h := (!h * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    let j = (!h lsr 20) land ((1 lsl 21) - 1) in
    large.{j} <- large.{j} + 1
  done;
  (* Batches small enough that nothing is allocated in the major heap
     and little outlives a minor GC, so the kernel leaves [heap_peak_mb]
     alone. *)
  for r = 1 to 40 do
    let table = Hashtbl.create 16 and list = ref [] in
    for k = 0 to 99 do
      list := (k, !h + k) :: !list;
      if k land 1 = 0 then Hashtbl.replace table ((k * 31) + r) (string_of_int k)
    done;
    ignore (Sys.opaque_identity (!list, table) : (int * int) list * (int, string) Hashtbl.t)
  done

(* About the kernel's time on the development host at its fast level;
   figures are scaled to a host where it takes exactly this. *)
let nominal_ns = 1_000_000

(* The kernel is timed at most once per [interval_ns] of the phase, so
   that its samples spread evenly over the phase whatever a call costs,
   and take about 8% of it. *)
let interval_ns = 12_500_000

(* Samples, newest first: when each ended (monotonic ns) and its time. *)
type t = { mutable samples : (int * float) list; mutable last : int }

let create () = { samples = []; last = min_int }

let sample t =
  let t0 = Spans.now_ns () in
  kernel ();
  let t1 = Spans.now_ns () in
  t.samples <- (t1, float_of_int (t1 - t0)) :: t.samples;
  t.last <- t1

let tick t = if Spans.now_ns () - t.last >= interval_ns then sample t

let times t = Array.of_list (List.rev_map snd t.samples)

(* The median kernel time of the phase, ns. *)
let median_ns t = Stats.median (times t)

(* The factor for the phase's timings taken together. *)
let scale t = float_of_int nominal_ns /. median_ns t

(* The factors for work that ran at each of [ats] (monotonic ns, in
   ascending order): for each, the median of the [near] samples on
   either side of it.  The speed changes within seconds, so a local
   figure tracks it better than the phase's median; three a side keep
   one disturbed sample from deciding it. *)
let near = 3

let scales_at t ats =
  let ends = Array.of_list (List.rev_map fst t.samples) and times = times t in
  let n = Array.length ends and j = ref 0 in
  Array.map
    (fun at ->
      while !j < n && ends.(!j) < at do
        incr j
      done;
      let lo = max 0 (!j - near) and hi = min n (!j + near) in
      float_of_int nominal_ns /. Stats.median (Array.sub times lo (hi - lo)))
    ats
