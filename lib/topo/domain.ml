type id = int

type kind = Backbone | Regional | Stub | Exchange

type t = { id : id; name : string; kind : kind }

let make ~id ~name ~kind = { id; name; kind }
