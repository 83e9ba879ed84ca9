"""Utility-specification DSL: parse, serialize, analyze, bind.

A specification declares alternatives, parameters and one utility
expression per alternative.  The text format is line oriented::

    spec intercity_base
    alt car bus air rail
    param asc_car fixed 0
    param asc_bus
    param b_time generic
    param b_cost generic
    U(car) = asc_car + b_time*time_car + b_cost*cost_car
    U(bus) = asc_bus + b_time*time_bus + b_cost*cost_bus
    ...

Identifiers starting with ``asc_``, ``b_``, ``beta_`` or ``lambda_`` are
reserved for parameters and must be declared; anything else is a dataset
variable resolved at bind time.
"""
