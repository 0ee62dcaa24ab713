"""CLI, persistence, and experiment orchestration."""
