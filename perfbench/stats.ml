let rank ~p n =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if p < 0 || p > 100 then invalid_arg "Stats.rank: percent outside [0, 100]";
  max 1 (((p * n) + 99) / 100)

let beyond ~p n = n - rank ~p n

let min_samples ~p ~beyond:want =
  if p >= 100 then invalid_arg "Stats.min_samples: nothing lies beyond p100";
  let rec go n = if beyond ~p n >= want then n else go (n + 1) in
  go 1

let percentile ~p samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.(rank ~p (Array.length sorted) - 1)

let median samples = percentile ~p:50 samples

let gmean = function
  | [] -> invalid_arg "Stats.gmean: no values"
  | values ->
      let sum_logs =
        List.fold_left
          (fun acc v ->
            if not (v > 0.0) then invalid_arg "Stats.gmean: value <= 0";
            acc +. log v)
          0.0 values
      in
      exp (sum_logs /. float_of_int (List.length values))

type span = { parent : int; start : int; stop : int }

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, max lb b))
        | Some (la, lb) -> (total + (lb - la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None) sorted
  in
  match last with Some (la, lb) -> total + (lb - la) | None -> total

let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s -> s.stop - s.start - covered ~lo:s.start ~hi:s.stop children.(i))
    spans
