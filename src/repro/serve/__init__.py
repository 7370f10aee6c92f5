"""Analysis-as-a-service: the ``repro serve`` daemon and its client.

The batch pipeline pays full substrate construction per CLI invocation;
this package keeps a process warm instead. One
:class:`~repro.serve.server.ServeDaemon` = an HTTP front end
(stdlib ``ThreadingHTTPServer``), a persistent
:class:`~repro.serve.workers.WorkerPool`, and a
:class:`~repro.serve.jobs.JobStore` riding inside the run-history
ledger. Workers call the detector as a library (forked per job for
fault isolation) against the shared persistent substrate cache, so
repeat submissions warm-start; results land in the ledger as ordinary
runs, which is what makes serve-mode output diffable against CLI
one-shot runs (`repro diff`) — the fingerprint equivalence
``tests/serve/test_serve.py`` pins.

See ``docs/operations.md`` ("Serving") for endpoints, the job
lifecycle, and exit/HTTP code conventions.
"""

from repro.serve.client import ServeClient, ServeError, serve_url_from_env
from repro.serve.jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobStore
from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT, SERVE_URL_ENV, ServeDaemon
from repro.serve.workers import ALLOWED_JOB_OPTIONS, WorkerPool, merge_job_options

__all__ = [
    "ALLOWED_JOB_OPTIONS",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DONE",
    "FAILED",
    "Job",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "SERVE_URL_ENV",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "WorkerPool",
    "merge_job_options",
    "serve_url_from_env",
]
