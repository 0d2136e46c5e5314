//! One module per reproduced figure of the paper's evaluation, plus the
//! studies beyond it (`algos`, `profile_gap`, `sweep`, `population`).

pub mod ablations;
pub mod algos;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod population;
pub mod profile_gap;
pub mod sweep;
