"""End-to-end benchmark of the checkpointing system; see README.md here."""
