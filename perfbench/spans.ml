(* The traced run's span recorder: spans live in memory while the
   phase runs and are read once it ends.  Each span is opened around a
   call into one layer's public function, from the benchmark's side of
   that call; nothing inside the library is instrumented.

   Recording is single-threaded by construction: the client, its
   in-process servers, the router and its shards all run on the
   calling thread, one request at a time.  Spans of the forked socket
   server are recorded by that process and added with [add_remote]
   after it exits. *)

type kind = Query | Parse | Lower | Call | Server | Router | Shard

type span = {
  kind : kind;
  query : int;  (** the traced query this span belongs to *)
  parent : int;  (** index of the enclosing span; -1 for a query root *)
  start : int;  (** monotonic ns *)
  mutable stop : int;
  mutable words : float;  (** minor words allocated inside, in the recording process *)
  mutable rows : int;  (** rows in a handler's response *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false
let current_query = ref 0
let recorded : span list ref = ref []
let count = ref 0
let open_spans : (int * span) list ref = ref []

let push span =
  let index = !count in
  incr count;
  recorded := span :: !recorded;
  index

let with_span kind f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with (i, _) :: _ -> i | [] -> -1 in
    let words_at_start = Gc.minor_words () in
    let query = !current_query in
    let start = now_ns () in
    let span = { kind; query; parent; start; stop = 0; words = 0.0; rows = 0 } in
    open_spans := (push span, span) :: !open_spans;
    let finish () =
      span.stop <- now_ns ();
      span.words <- Gc.minor_words () -. words_at_start;
      open_spans := List.tl !open_spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let set_rows n = match !open_spans with (_, span) :: _ -> span.rows <- n | [] -> ()

let add_remote ~query ~parent ~start ~stop ~words ~rows =
  ignore (push { kind = Server; query; parent; start; stop; words; rows } : int)

let all () = Array.of_list (List.rev !recorded)
