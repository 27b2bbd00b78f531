(* Timing and summary statistics shared by the client and the replay. *)

(* CLOCK_MONOTONIC in nanoseconds: Unix.gettimeofday only resolves
   microseconds, coarser than the per-layer spans being measured. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable array of float samples (unboxed storage). *)
module Samples = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 1024; len = 0 }

  let add t x =
    if t.len = Float.Array.length t.data then begin
      let bigger = Float.Array.create (2 * t.len) in
      Float.Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Float.Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let sorted t =
    let a = Float.Array.sub t.data 0 t.len in
    Float.Array.sort Float.compare a;
    a
end

(* Linear interpolation between closest ranks of a sorted array. *)
let quantile sorted p =
  let n = Float.Array.length sorted in
  if n = 0 then 0.
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let a = Float.Array.get sorted lo and b = Float.Array.get sorted hi in
    a +. ((pos -. float_of_int lo) *. (b -. a))
  end

let median samples = quantile (Samples.sorted samples) 0.5

let count_above sorted x =
  let n = ref 0 in
  Float.Array.iter (fun v -> if v > x then incr n) sorted;
  !n
