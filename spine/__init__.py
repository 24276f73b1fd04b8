"""The measurement spine: the repo's one benchmark (see ``spine/README.md``)."""
