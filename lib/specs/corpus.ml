let all =
  [
    Builtins.bool_spec;
    Builtins.nat_spec;
    Builtins.item_spec;
    Identifier.spec;
    Attributes.spec;
    Queue_spec.spec;
    Stack_spec.default.Stack_spec.spec;
    Array_spec.default.Array_spec.spec;
    Symboltable_spec.spec;
    Knowlist_spec.spec;
    Symboltable_knows_spec.spec;
    Bounded_queue_spec.spec;
    Pairlist_spec.spec;
  ]
