"""Execution substrate: mock data for running Featherweight SQL (paper Section 6.3).

The paper's transpilation-quality experiment executes manually-written and
transpiled SQL on populated database instances and compares wall-clock
times.  This package generates that mock data; execution itself goes
through the backend registry (:func:`repro.backends.load_backend`) or the
:class:`~repro.backends.service.GraphitiService` facade.
"""

from repro.execution.datagen import MockDataGenerator

__all__ = ["MockDataGenerator"]
