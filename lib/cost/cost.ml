(* Cost-model-driven planning support: calibrated per-node cost model
   (Model) backed by a persisted coefficient store (Calibration), and
   the serialized schedule values the planner searches and OGB_SCHEDULE
   pins (Schedule).  The planner itself lives in lib/exec (it needs the
   plan representation); this layer is deliberately below exec so the
   JIT and the bench can share it. *)

module Calibration = Calibration
module Model = Model
module Schedule = Schedule
