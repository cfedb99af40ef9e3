"""Analysis: FCT statistics, analytic models, resource inventories."""
